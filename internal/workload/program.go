package workload

import (
	"math"

	"ev8pred/internal/rng"
	"ev8pred/internal/trace"
)

// stmtKind enumerates the statement forms of the synthetic program.
type stmtKind uint8

const (
	stmtIf     stmtKind = iota // conditional branch that skips its body when taken
	stmtLoop                   // body followed by a backward conditional branch
	stmtSwitch                 // indirect jump dispatching to one of several cases
)

// stmt is one statement of a function body. Straight-line code is implicit
// in the address layout: gaps between control points are real address
// distances, so the generator never needs explicit "basic block" records.
//
// A statement holds no slice or pointer: its body is the index range
// program.stmts[lo:hi], and ref indexes the table for its kind
// (program.models for an if, program.trips for a loop, program.switches
// for a switch). The arrays of a program therefore hold no pointers, and
// the collector never scans them.
type stmt struct {
	branchPC uint64 // address of the branch/jump instruction
	target   uint64 // taken target (if: skip address; loop: body start)
	lo, hi   int32  // body: program.stmts[lo:hi]
	ref      int32  // index into the table for kind
	kind     stmtKind
}

// switchStmt is a switch's dispatch: its cases are program.cases[lo:hi],
// join is the common continuation, and bias the probability of the hot
// case (case 0).
type switchStmt struct {
	bias   float64
	join   uint64
	lo, hi int32
}

// switchCase is one case of a switch: the case body's entry point and
// its trailing jump to the join.
type switchCase struct {
	addr   uint64
	jumpPC uint64
}

// function is one synthetic function: entry point, body
// (program.stmts[lo:hi]), and the return instruction that ends it.
type function struct {
	entry  uint64
	retPC  uint64
	lo, hi int32
}

// program is the immutable static structure a generator interprets. Every
// body is a contiguous range of stmts: a body's nested bodies come before
// it, so each body is complete when its parent statement is emitted.
type program struct {
	funcs    []function
	stmts    []stmt
	models   []siteModel // if-site outcome models, by stmt.ref
	trips    []tripModel // loop trip models, by stmt.ref
	switches []switchStmt
	cases    []switchCase

	// Driver loop layout: callPCs[i] is the call instruction for the
	// i-th slot of the repeating call sequence callSeq; after the last
	// slot an unconditional jump at jumpPC returns to driverStart.
	driverStart uint64
	callPCs     []uint64
	callSeq     []int
	jumpPC      uint64
}

// maxStaticCond bounds Profile.StaticCond so that every statement, model
// and case index fits the int32 fields of stmt and switchStmt: a program
// holds at most two statements and six cases per site.
const maxStaticCond = 1 << 24

const (
	streamBuild = 101 // rng stream for program construction
	streamExec  = 202 // rng stream for execution draws
)

// builder carries construction state. Switch structure is drawn from a
// separate rng stream so that enabling switches does not reshuffle the
// site/model/trip draws of the calibrated profiles.
type builder struct {
	prof   Profile
	r      *rng.PCG32
	rs     *rng.PCG32 // switch-structure stream
	cursor uint64
	p      *program

	// open holds the statements of the bodies under construction, the
	// innermost last. A body moves to p.stmts when it is complete.
	open []stmt
}

// streamSwitch is the rng stream for switch-dispatch structure.
const streamSwitch = 303

// buildProgram constructs the synthetic program for a profile.
func buildProgram(prof Profile) *program {
	b := &builder{
		prof:   prof,
		r:      rng.New(prof.Seed, streamBuild),
		rs:     rng.New(prof.Seed, streamSwitch),
		cursor: 0x10000,
	}
	p := &program{driverStart: b.cursor}
	b.p = p

	// Driver region: CallSeqLen call sites separated by straight code,
	// then a jump back to the start.
	p.callPCs = make([]uint64, prof.CallSeqLen)
	for i := range p.callPCs {
		b.straight()
		p.callPCs[i] = b.emitInstr()
	}
	b.straight()
	p.jumpPC = b.emitInstr()

	// Assign sites to functions: every function gets at least one site;
	// the remainder is spread with random weights so some functions are
	// much larger than others (realistic footprint skew).
	nf := prof.Functions
	if nf > prof.StaticCond {
		nf = prof.StaticCond
	}
	alloc := make([]int, nf)
	for i := range alloc {
		alloc[i] = 1
	}
	for extra := prof.StaticCond - nf; extra > 0; extra-- {
		alloc[b.r.Intn(nf)]++
	}
	b.presize(alloc)

	p.funcs = make([]function, nf)
	for i := range p.funcs {
		b.gapAddr(16) // inter-function padding
		entry := b.cursor
		lo, hi := b.genBody(alloc[i], 0)
		b.straight()
		retPC := b.emitInstr()
		p.funcs[i] = function{entry: entry, retPC: retPC, lo: lo, hi: hi}
	}

	// The repeating call sequence: Zipf-like weights make a few
	// functions hot while the tail is cold, which is what creates the
	// warm/cold predictor-footprint mix of real programs.
	p.callSeq = make([]int, prof.CallSeqLen)
	for i := range p.callSeq {
		p.callSeq[i] = b.zipf(nf)
	}
	return p
}

// presize allocates the program's arrays once, at the size the build
// fills. If and loop statements together number exactly StaticCond, so
// models is sized for all of them. Loops and switches are random in
// number: trips, switches and cases get their expected count plus four
// standard deviations (a switch has casesPerSwitch cases on average), and
// append grows them only past that. open needs one function's sites plus
// two switches for each of the four nesting depths.
func (b *builder) presize(alloc []int) {
	n := b.prof.StaticCond
	sw := margin(b.prof.SwitchFrac * float64(n))
	largest := 0
	for _, a := range alloc {
		largest = max(largest, a)
	}
	b.p.stmts = make([]stmt, 0, n+sw)
	b.p.models = make([]siteModel, 0, n)
	b.p.trips = make([]tripModel, 0, min(n, margin(b.prof.FracLoop*float64(n))))
	b.p.switches = make([]switchStmt, 0, sw)
	b.p.cases = make([]switchCase, 0, sw*casesPerSwitch)
	b.open = make([]stmt, 0, largest+2*4)
}

// casesPerSwitch is the mean number of cases of a switch (2 to 6).
const casesPerSwitch = 4

// margin returns mean plus four standard deviations of a binomial count
// with that mean (at most sqrt(mean)), plus a constant for small means.
func margin(mean float64) int {
	return int(mean+4*math.Sqrt(mean)) + 8
}

// zipf draws a function index with probability roughly proportional to
// 1/(index+1).
func (b *builder) zipf(n int) int {
	// Rejection-free approximation: map a uniform draw through x^3 to
	// concentrate mass near 0, then spread with a uniform second draw.
	u := b.r.Float64()
	idx := int(u * u * u * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// straight advances the cursor over a run of straight-line instructions
// drawn from the profile's gap distribution.
func (b *builder) straight() {
	n := b.r.Geometric(b.prof.AvgGap)
	b.cursor += uint64(n) * trace.InstrBytes
}

// gapAddr advances the cursor by exactly n instructions.
func (b *builder) gapAddr(n int) {
	b.cursor += uint64(n) * trace.InstrBytes
}

// emitInstr reserves one instruction slot and returns its address.
func (b *builder) emitInstr() uint64 {
	pc := b.cursor
	b.cursor += trace.InstrBytes
	return pc
}

// genBody lays out a function/region body containing exactly budget
// conditional-branch sites, and returns its range in p.stmts. Nested
// bodies are laid out, and moved to p.stmts, before the statements that
// own them.
func (b *builder) genBody(budget, depth int) (lo, hi int32) {
	base := len(b.open)
	switches := 0
	for budget > 0 {
		// Occasionally insert an indirect-jump dispatch (a switch
		// statement): these exercise the front end's jump predictor
		// without consuming conditional-site budget. All switch draws
		// come from the dedicated rs stream so the calibrated b.r draw
		// sequence is untouched.
		if switches < 2 && b.prof.SwitchFrac > 0 && b.rs.Bool(b.prof.SwitchFrac) {
			b.gapAddr(b.rs.Geometric(b.prof.AvgGap))
			b.open = append(b.open, b.genSwitch())
			switches++
		}
		b.straight()
		// Structural choice: loop region or if-site.
		if depth < 3 && budget >= 2 && b.r.Bool(b.prof.FracLoop) {
			// Loop: one site for the back edge plus a nested body.
			sub := 1
			if budget > 2 {
				sub += b.r.Intn(budget - 2)
			}
			bodyStart := b.cursor
			lo, hi := b.genBody(sub, depth+1)
			b.straight()
			pc := b.emitInstr()
			b.open = append(b.open, stmt{
				kind:     stmtLoop,
				branchPC: pc,
				target:   bodyStart,
				lo:       lo,
				hi:       hi,
				ref:      int32(len(b.p.trips)),
			})
			b.p.trips = append(b.p.trips, b.newTrip())
			budget -= sub + 1
			continue
		}
		// If-site: the branch skips its then-body when taken. The body
		// may contain nested sites.
		sub := 0
		if depth < 3 && budget > 1 && b.r.Bool(0.3) {
			sub = 1 + b.r.Intn((budget-1+1)/2)
		}
		pc := b.emitInstr()
		lo, hi := b.genBody(sub, depth+1)
		b.straight()
		b.open = append(b.open, stmt{
			kind:     stmtIf,
			branchPC: pc,
			target:   b.cursor, // skip to just past the then-body
			lo:       lo,
			hi:       hi,
			ref:      int32(len(b.p.models)),
		})
		b.p.models = append(b.p.models, b.newModel())
		budget -= sub + 1
	}
	lo = int32(len(b.p.stmts))
	b.p.stmts = append(b.p.stmts, b.open[base:]...)
	b.open = b.open[:base]
	return lo, int32(len(b.p.stmts))
}

// genSwitch lays out an indirect-jump dispatch: a jump instruction
// followed by 2–6 straight-line case bodies, each ending in a direct jump
// to the common join point. The dispatch target distribution is skewed
// (one hot case), which is what makes a last-target jump predictor useful
// but imperfect — interpreter-style behavior.
func (b *builder) genSwitch() stmt {
	sw := switchStmt{bias: 0.5 + b.rs.Float64()*0.45}
	s := stmt{kind: stmtSwitch, branchPC: b.emitInstr(), ref: int32(len(b.p.switches))}
	n := 2 + b.rs.Intn(5)
	sw.lo = int32(len(b.p.cases))
	for c := 0; c < n; c++ {
		addr := b.cursor
		b.gapAddr(1 + b.rs.Intn(8))
		b.p.cases = append(b.p.cases, switchCase{addr: addr, jumpPC: b.emitInstr()})
	}
	sw.hi = int32(len(b.p.cases))
	sw.join = b.cursor
	b.p.switches = append(b.p.switches, sw)
	return s
}

// newTrip draws a loop trip model from the profile. Fixed-trip loops come
// in two populations mirroring real code: SHORT loops (trip 2–8) whose
// full iteration pattern fits in a global history window — these are the
// branches that reward longer predictor histories — and LONG loops (around
// TripMean) whose single exit misprediction is amortized over many
// predictable back edges.
func (b *builder) newTrip() tripModel {
	p := &b.prof
	if b.r.Bool(p.TripFixedFrac) {
		if b.r.Bool(0.6) {
			return tripModel{fixed: true, trip: 2 + b.r.Intn(7)}
		}
		t := 1 + b.r.Geometric(p.TripMean)
		if t > p.TripMax {
			t = p.TripMax
		}
		return tripModel{fixed: true, trip: t}
	}
	return tripModel{mean: p.TripMean, max: p.TripMax}
}

// newModel draws an if-site outcome model from the profile mix.
func (b *builder) newModel() siteModel {
	p := &b.prof
	u := b.r.Float64()
	switch {
	case u < p.FracCorr:
		// Two tap populations: 70% short-range (within ~10 branches,
		// learnable at modest history lengths) and 30% spread up to
		// CorrMaxDist (the branches that reward very long histories,
		// §5.3).
		lo := p.CorrMinDist
		hi := p.CorrMaxDist
		if shortHi := lo + 9; b.r.Bool(0.7) && shortHi < hi {
			hi = shortHi
		}
		return siteModel{
			kind:   modelCorr,
			tap:    uint8(lo + b.r.Intn(hi-lo+1)),
			invert: b.r.Bool(0.5),
			noise:  p.NoiseCorr,
		}
	case u < p.FracCorr+p.FracLocal:
		patLen := 2 + b.r.Intn(7)
		pattern := b.r.Uint64() & ((1 << uint(patLen)) - 1)
		return siteModel{
			kind:    modelLocal,
			pattern: uint8(pattern),
			patLen:  uint8(patLen),
			noise:   p.NoiseLocal,
		}
	case u < p.FracCorr+p.FracLocal+p.FracRandom:
		pr := p.RandomLo + b.r.Float64()*(p.RandomHi-p.RandomLo)
		return siteModel{kind: modelRandom, p: pr}
	default:
		// Most biased branches in real optimized code are fully one-way
		// (error checks, guards): 70% of biased sites are deterministic,
		// the rest flip with probability 1-BiasStrength.
		pr := p.BiasStrength
		if b.r.Bool(0.7) {
			pr = 1.0
		}
		if b.r.Bool(p.BiasNTFrac) {
			pr = 1 - pr
		}
		return siteModel{kind: modelBias, p: pr}
	}
}
