// Package workload generates deterministic synthetic branch traces whose
// statistical structure is calibrated to the SPECINT95 benchmark set the
// paper evaluates on (Table 2): per-benchmark static conditional-branch
// counts, dynamic branch density, taken-rate, loop structure, and global
// history correlation at controlled distances.
//
// The paper's experiments depend on exactly these statistics — aliasing
// pressure (static footprint), history-length benefit (correlation
// distances and loop trip counts), bimodal-component utility (bias mix) and
// fetch-block geometry (gap distribution) — not on the literal SPEC inputs,
// which cannot be redistributed. See DESIGN.md §1 for the substitution
// argument.
//
// A workload is built in two phases:
//
//  1. build: a static synthetic program is constructed — a driver loop
//     calling functions whose bodies are nested loop/if regions laid out at
//     real addresses, with an outcome model attached to every conditional
//     branch site;
//  2. execution: Generator interprets the program, emitting trace.Branch
//     records. Instruction gaps are derived from the address layout, so
//     the front-end invariant PC == prevNextPC + Gap*4 holds by
//     construction.
package workload

import (
	"ev8pred/internal/rng"
)

// modelKind enumerates outcome models for conditional-branch sites.
type modelKind uint8

const (
	// modelBias: taken with a fixed probability (strongly biased sites;
	// the bread and butter of the bimodal component).
	modelBias modelKind = iota
	// modelCorr: outcome repeats the outcome of an earlier global branch
	// (a fixed distance back), optionally inverted, with noise — the
	// canonical correlated branch (a re-tested predicate). These sites
	// are what long global history captures; a predictor whose history
	// window is shorter than the tap distance sees pure noise.
	modelCorr
	// modelLocal: outcome follows a fixed repeating per-site pattern
	// with noise. Captured by global history when the surrounding
	// execution is regular, and by local-history predictors directly.
	modelLocal
	// modelRandom: taken with a per-site probability near 0.5 —
	// data-dependent branches no predictor can learn.
	modelRandom
)

// siteModel is the outcome model attached to one conditional if-site.
// Its integer fields are bytes: a tap is at most maxCorrDist and a
// pattern at most 8 bits long.
type siteModel struct {
	p       float64 // bias / random probability of taken
	noise   float64 // corr/local: probability the modeled outcome is flipped
	kind    modelKind
	tap     uint8 // corr: global-history distance, in [1, maxCorrDist]
	invert  bool  // corr: invert the repeated outcome
	pattern uint8 // local: repeating pattern bits
	patLen  uint8 // local: pattern length in bits, in [2, 8]
}

// maxCorrDist bounds Profile.CorrMaxDist: a correlated site reads its tap
// from the generator's 64-bit global history.
const maxCorrDist = 64

// eval computes the site's next outcome. ghist is the true global outcome
// history (bit 0 = most recent); patPos is the site's mutable pattern
// cursor (owned by the Generator, so the model itself stays immutable).
func (m *siteModel) eval(r *rng.PCG32, ghist uint64, patPos *uint8) bool {
	switch m.kind {
	case modelBias, modelRandom:
		return r.Bool(m.p)
	case modelCorr:
		v := (ghist>>(m.tap-1))&1 == 1
		if m.invert {
			v = !v
		}
		if m.noise > 0 && r.Bool(m.noise) {
			v = !v
		}
		return v
	case modelLocal:
		bit := (m.pattern>>*patPos)&1 == 1
		*patPos++
		if *patPos >= m.patLen {
			*patPos = 0
		}
		if m.noise > 0 && r.Bool(m.noise) {
			bit = !bit
		}
		return bit
	default:
		panic("workload: invalid model kind")
	}
}

// tripModel describes the per-activation iteration count of a loop site.
type tripModel struct {
	fixed bool
	trip  int     // fixed trip count
	mean  float64 // geometric mean for variable trips
	max   int     // cap for variable trips
}

// draw returns the number of body executions for one loop activation (>= 1).
func (tm *tripModel) draw(r *rng.PCG32) int {
	if tm.fixed {
		return tm.trip
	}
	t := r.Geometric(tm.mean)
	if t > tm.max {
		t = tm.max
	}
	return t
}
