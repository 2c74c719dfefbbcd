package ev8pred

import (
	"ev8pred/internal/predictor/agree"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/bimode"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/dhlf"
	"ev8pred/internal/predictor/egskew"
	"ev8pred/internal/predictor/gas"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/hybrid"
	"ev8pred/internal/predictor/local"
	"ev8pred/internal/predictor/perceptron"
	"ev8pred/internal/predictor/yags"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// Baseline predictor constructors — the comparison roster of the paper's
// §8.2 plus the local/hybrid predictors of §3 and the perceptron of §9.
// All sizes are table entry counts and must be powers of two; histLen is
// in branches (bits).

// NewBimodal returns a PC-indexed 2-bit counter predictor (Smith [21]).
func NewBimodal(entries int) (Predictor, error) { return bimodal.New(entries) }

// NewGshare returns a gshare predictor (McFarling [14]).
func NewGshare(entries, histLen int) (Predictor, error) { return gshare.New(entries, histLen) }

// NewGAs returns a two-level GAs predictor (Yeh–Patt [27]) with
// 2^(histLen+addrBits) counters.
func NewGAs(histLen, addrBits int) (Predictor, error) { return gas.New(histLen, addrBits) }

// NewEGskew returns an enhanced skewed predictor (Michaud et al. [15])
// with three banks of entries counters.
func NewEGskew(entries, histLen int, partialUpdate bool) (Predictor, error) {
	return egskew.New(entries, histLen, partialUpdate)
}

// NewBimode returns a bi-mode predictor (Lee et al. [13]).
func NewBimode(dirEntries, choiceEntries, histLen int) (Predictor, error) {
	return bimode.New(dirEntries, choiceEntries, histLen)
}

// NewYAGS returns a YAGS predictor (Eden–Mudge [4]) with 6-bit tags.
func NewYAGS(choiceEntries, cacheEntries, histLen int) (Predictor, error) {
	return yags.New(choiceEntries, cacheEntries, histLen)
}

// NewAgree returns an agree predictor (Sprangle et al. [22]).
func NewAgree(biasEntries, agreeEntries, histLen int) (Predictor, error) {
	return agree.New(biasEntries, agreeEntries, histLen)
}

// NewLocal returns a two-level local-history predictor (21264-style [7]).
func NewLocal(histEntries, histBits int) (Predictor, error) {
	return local.New(histEntries, histBits)
}

// NewHybrid combines two predictors with a PC-indexed chooser
// (McFarling [14]); the 21264 tournament predictor is NewHybrid(local,
// global, ...).
func NewHybrid(a, b Predictor, chooserEntries int) (Predictor, error) {
	return hybrid.New(a, b, chooserEntries)
}

// NewPerceptron returns a perceptron predictor (Jiménez–Lin [11]).
func NewPerceptron(entries, histLen int) (Predictor, error) {
	return perceptron.New(entries, histLen)
}

// NewDHLF returns a gshare predictor with dynamic history-length fitting
// (Juan et al. [12], the adaptivity §4.5 cites).
func NewDHLF(entries, maxHistLen int, epoch int64) (Predictor, error) {
	return dhlf.New(entries, maxHistLen, epoch)
}

// NewCascade returns the §9 backup hierarchy: primary predicts fast,
// backup overrides late where experience and confidence justify it.
// overrideEntries 0 selects the default table size.
func NewCascade(primary, backup Predictor, overrideEntries int) (Predictor, error) {
	return cascade.New(primary, backup, cascade.Config{OverrideEntries: overrideEntries})
}

// NewInterleaved merges per-thread branch sources into one SMT stream with
// roughly quantum instructions per thread switch; run the result with Run
// and the simulator keeps per-thread histories automatically.
func NewInterleaved(threads []Source, quantum int64) Source {
	return workload.NewInterleaved(threads, quantum)
}

// CollectTrace drains a source into memory (max <= 0 collects everything)
// and returns the records with the stream's failure, or nil for a clean
// end; wrap the records with NewSliceSource to replay them.
func CollectTrace(src Source, max int) ([]Branch, error) { return trace.Collect(src, max) }

// NewSliceSource wraps records in a source.
func NewSliceSource(records []Branch) Source { return trace.NewSlice(records) }
