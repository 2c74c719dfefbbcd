package workload

import (
	"fmt"
	"math"
)

// Profile parameterizes one synthetic benchmark. The exported fields are
// the calibration knobs; Benchmarks() returns the eight SPECINT95 profiles
// used throughout the experiment harness.
type Profile struct {
	// Name identifies the benchmark in reports.
	Name string
	// Seed drives both program construction and execution randomness.
	Seed uint64

	// StaticCond is the target number of static conditional branch sites
	// (Table 2's "static cond. branches"), at most 2^24. The builder hits
	// it exactly.
	StaticCond int
	// Functions is the number of functions the sites are spread over.
	Functions int
	// CallSeqLen is the length of the driver's repeating call sequence.
	CallSeqLen int
	// AvgGap is the mean number of straight-line instructions between
	// control points in the layout; it controls dynamic branch density
	// (Table 2's dynamic counts).
	AvgGap float64

	// Site-mix fractions. A structural draw first decides loop vs if
	// (FracLoop); the if-site condition models then split the remainder
	// among correlated / local / random, with biased taking the rest.
	FracLoop   float64
	FracCorr   float64
	FracLocal  float64
	FracRandom float64

	// NoiseCorr and NoiseLocal are the flip probabilities of the
	// correlated and pattern models: the floor no predictor can beat.
	NoiseCorr  float64
	NoiseLocal float64
	// CorrMinDist and CorrMaxDist bound the global-history tap
	// distances of correlated sites; CorrMaxDist is what makes long
	// histories pay off. The generator's global history is 64 outcomes
	// long, so CorrMaxDist is at most 64.
	CorrMinDist int
	CorrMaxDist int

	// RandomLo and RandomHi bound the taken-probability of random sites.
	RandomLo, RandomHi float64

	// TripMean is the mean loop trip count; TripFixedFrac is the
	// fraction of loops with a deterministic trip count (whose exits a
	// sufficiently long history predicts perfectly).
	TripMean      float64
	TripFixedFrac float64
	// TripMax caps variable trip counts.
	TripMax int

	// SwitchFrac is the per-statement probability of inserting an
	// indirect-jump dispatch (a switch) into a function body. Switches
	// exercise the front end's jump predictor (§2) and do not count
	// against StaticCond.
	SwitchFrac float64

	// BiasNTFrac is the fraction of biased sites biased not-taken
	// (optimized code exhibits fewer taken branches, §5.1).
	BiasNTFrac float64
	// BiasStrength is the bias probability (taken-p is BiasStrength for
	// taken-biased sites and 1-BiasStrength for not-taken-biased ones).
	BiasStrength float64
}

// Validate reports configuration errors. Every float field must be
// finite: a NaN passes every ordered comparison below, and a NaN or
// infinite AvgGap would make each straight-line run the geometric draw's
// 2^20-instruction bound.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"AvgGap", p.AvgGap}, {"FracLoop", p.FracLoop}, {"FracCorr", p.FracCorr},
		{"FracLocal", p.FracLocal}, {"FracRandom", p.FracRandom},
		{"NoiseCorr", p.NoiseCorr}, {"NoiseLocal", p.NoiseLocal},
		{"RandomLo", p.RandomLo}, {"RandomHi", p.RandomHi},
		{"TripMean", p.TripMean}, {"TripFixedFrac", p.TripFixedFrac},
		{"SwitchFrac", p.SwitchFrac}, {"BiasNTFrac", p.BiasNTFrac},
		{"BiasStrength", p.BiasStrength},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %s: %s %v is not finite", p.Name, f.name, f.v)
		}
	}
	switch {
	case p.StaticCond < 1 || p.StaticCond > maxStaticCond:
		return fmt.Errorf("workload %s: StaticCond %d outside [1,%d]", p.Name, p.StaticCond, maxStaticCond)
	case p.Functions < 1:
		return fmt.Errorf("workload %s: Functions %d < 1", p.Name, p.Functions)
	case p.CallSeqLen < 1:
		return fmt.Errorf("workload %s: CallSeqLen %d < 1", p.Name, p.CallSeqLen)
	case p.AvgGap < 1:
		return fmt.Errorf("workload %s: AvgGap %v < 1", p.Name, p.AvgGap)
	case p.FracLoop < 0 || p.FracCorr < 0 || p.FracLocal < 0 || p.FracRandom < 0:
		return fmt.Errorf("workload %s: negative site fraction", p.Name)
	case p.FracCorr+p.FracLocal+p.FracRandom > 1:
		return fmt.Errorf("workload %s: if-site fractions exceed 1", p.Name)
	case p.NoiseCorr < 0 || p.NoiseCorr > 1 || p.NoiseLocal < 0 || p.NoiseLocal > 1:
		return fmt.Errorf("workload %s: noise (corr %v, local %v) outside [0,1]", p.Name, p.NoiseCorr, p.NoiseLocal)
	case p.CorrMinDist < 1 || p.CorrMaxDist < p.CorrMinDist || p.CorrMaxDist > maxCorrDist:
		return fmt.Errorf("workload %s: bad correlation distances [%d,%d] (at most %d)", p.Name, p.CorrMinDist, p.CorrMaxDist, maxCorrDist)
	case p.TripMean < 1:
		return fmt.Errorf("workload %s: TripMean %v < 1", p.Name, p.TripMean)
	case p.TripMax < 1:
		return fmt.Errorf("workload %s: TripMax %d < 1", p.Name, p.TripMax)
	case p.BiasStrength <= 0.5 || p.BiasStrength >= 1:
		return fmt.Errorf("workload %s: BiasStrength %v outside (0.5,1)", p.Name, p.BiasStrength)
	case p.RandomLo < 0 || p.RandomHi > 1 || p.RandomHi < p.RandomLo:
		return fmt.Errorf("workload %s: bad random range [%v,%v]", p.Name, p.RandomLo, p.RandomHi)
	case p.SwitchFrac < 0 || p.SwitchFrac > 0.5:
		return fmt.Errorf("workload %s: SwitchFrac %v outside [0,0.5]", p.Name, p.SwitchFrac)
	}
	return nil
}

// Benchmarks returns the eight SPECINT95-like profiles, in the order the
// paper's tables list them. Static branch counts match Table 2 exactly;
// the remaining knobs are calibrated so that dynamic branch density tracks
// Table 2 and the per-benchmark difficulty ordering of Figures 5–10 holds
// (go hardest, then compress/gcc; m88ksim and vortex easiest).
func Benchmarks() []Profile {
	return []Profile{
		{
			// compress: tiny footprint, data-dependent bit-stream tests;
			// hard despite only 46 static branches.
			Name: "compress", Seed: 0xc0301, StaticCond: 46, Functions: 6,
			CallSeqLen: 24, AvgGap: 5.0,
			FracLoop: 0.18, FracCorr: 0.34, FracLocal: 0.12, FracRandom: 0.08,
			NoiseCorr: 0.01, NoiseLocal: 0.01,
			CorrMinDist: 2, CorrMaxDist: 18,
			RandomLo: 0.3, RandomHi: 0.7,
			TripMean: 25, TripFixedFrac: 0.7, TripMax: 200,
			SwitchFrac: 0.04,
			BiasNTFrac: 0.65, BiasStrength: 0.995,
		},
		{
			// gcc: huge static footprint, moderate per-branch difficulty;
			// aliasing pressure is its defining property.
			Name: "gcc", Seed: 0x6cc02, StaticCond: 12086, Functions: 320,
			CallSeqLen: 420, AvgGap: 3.4,
			FracLoop: 0.12, FracCorr: 0.36, FracLocal: 0.12, FracRandom: 0.03,
			NoiseCorr: 0.004, NoiseLocal: 0.005,
			CorrMinDist: 1, CorrMaxDist: 24,
			RandomLo: 0.3, RandomHi: 0.7,
			TripMean: 18, TripFixedFrac: 0.85, TripMax: 150,
			SwitchFrac: 0.08,
			BiasNTFrac: 0.7, BiasStrength: 0.995,
		},
		{
			// go: large footprint AND intrinsically unpredictable
			// decisions; the hardest benchmark in every figure.
			Name: "go", Seed: 0x60003, StaticCond: 3710, Functions: 150,
			CallSeqLen: 260, AvgGap: 5.6,
			FracLoop: 0.10, FracCorr: 0.30, FracLocal: 0.10, FracRandom: 0.10,
			NoiseCorr: 0.02, NoiseLocal: 0.02,
			CorrMinDist: 1, CorrMaxDist: 30,
			RandomLo: 0.35, RandomHi: 0.65,
			TripMean: 8, TripFixedFrac: 0.7, TripMax: 60,
			SwitchFrac: 0.06,
			BiasNTFrac: 0.6, BiasStrength: 0.99,
		},
		{
			// ijpeg: loop-dominated media kernels; very regular.
			Name: "ijpeg", Seed: 0x13e604, StaticCond: 904, Functions: 60,
			CallSeqLen: 90, AvgGap: 7.0,
			FracLoop: 0.38, FracCorr: 0.24, FracLocal: 0.12, FracRandom: 0.02,
			NoiseCorr: 0.002, NoiseLocal: 0.003,
			CorrMinDist: 1, CorrMaxDist: 16,
			RandomLo: 0.35, RandomHi: 0.65,
			TripMean: 35, TripFixedFrac: 0.9, TripMax: 300,
			SwitchFrac: 0.03,
			BiasNTFrac: 0.7, BiasStrength: 0.998,
		},
		{
			// li: lisp interpreter; small footprint, strong dispatch
			// correlation.
			Name: "li", Seed: 0x11905, StaticCond: 251, Functions: 24,
			CallSeqLen: 60, AvgGap: 3.5,
			FracLoop: 0.10, FracCorr: 0.50, FracLocal: 0.12, FracRandom: 0.03,
			NoiseCorr: 0.002, NoiseLocal: 0.003,
			CorrMinDist: 2, CorrMaxDist: 20,
			RandomLo: 0.35, RandomHi: 0.65,
			TripMean: 20, TripFixedFrac: 0.85, TripMax: 150,
			SwitchFrac: 0.12,
			BiasNTFrac: 0.65, BiasStrength: 0.997,
		},
		{
			// m88ksim: CPU simulator main loop; extremely predictable.
			Name: "m88ksim", Seed: 0x88006, StaticCond: 409, Functions: 36,
			CallSeqLen: 70, AvgGap: 7.0,
			FracLoop: 0.22, FracCorr: 0.38, FracLocal: 0.14, FracRandom: 0.008,
			NoiseCorr: 0.001, NoiseLocal: 0.002,
			CorrMinDist: 1, CorrMaxDist: 20,
			RandomLo: 0.4, RandomHi: 0.6,
			TripMean: 50, TripFixedFrac: 0.92, TripMax: 400,
			SwitchFrac: 0.06,
			BiasNTFrac: 0.72, BiasStrength: 0.999,
		},
		{
			// perl: interpreter dispatch; predictable with history.
			Name: "perl", Seed: 0x9e407, StaticCond: 273, Functions: 30,
			CallSeqLen: 64, AvgGap: 8.0,
			FracLoop: 0.12, FracCorr: 0.46, FracLocal: 0.14, FracRandom: 0.015,
			NoiseCorr: 0.002, NoiseLocal: 0.003,
			CorrMinDist: 2, CorrMaxDist: 22,
			RandomLo: 0.35, RandomHi: 0.65,
			TripMean: 25, TripFixedFrac: 0.85, TripMax: 200,
			SwitchFrac: 0.12,
			BiasNTFrac: 0.68, BiasStrength: 0.998,
		},
		{
			// vortex: object database; biased-branch heavy, large-ish
			// footprint, very low noise.
			Name: "vortex", Seed: 0x50e08, StaticCond: 2239, Functions: 130,
			CallSeqLen: 230, AvgGap: 4.0,
			FracLoop: 0.12, FracCorr: 0.30, FracLocal: 0.08, FracRandom: 0.005,
			NoiseCorr: 0.002, NoiseLocal: 0.003,
			CorrMinDist: 1, CorrMaxDist: 22,
			RandomLo: 0.4, RandomHi: 0.6,
			TripMean: 30, TripFixedFrac: 0.92, TripMax: 250,
			SwitchFrac: 0.05,
			BiasNTFrac: 0.75, BiasStrength: 0.999,
		},
	}
}

// ByName returns the named benchmark profile.
func ByName(name string) (Profile, error) {
	for _, p := range Benchmarks() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the benchmark names in canonical order.
func Names() []string {
	bs := Benchmarks()
	out := make([]string, len(bs))
	for i, p := range bs {
		out[i] = p.Name
	}
	return out
}
