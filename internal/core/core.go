// Package core implements 2Bc-gskew, the hybrid skewed branch predictor
// (Seznec–Michaud [19]) that the Alpha EV8 predictor is derived from, with
// every degree of freedom the paper's §4 explores:
//
//   - four 2-bit counter banks: BIM (bimodal), G0 and G1 (the two skewed
//     e-gskew banks; BIM doubles as the third e-gskew bank) and Meta (the
//     metapredictor choosing between BIM and the G0/G1/BIM majority vote);
//   - per-bank table sizes (§4.6: a smaller BIM for large predictors);
//   - per-bank history lengths (§4.5: medium for G0, long for G1);
//   - physically split prediction/hysteresis arrays with per-bank
//     hysteresis sizing (§4.3–4.4: half-size hysteresis for G0 and Meta in
//     the EV8 configuration);
//   - the partial update policy of §4.2 (with both Rationales), with total
//     update available for ablation;
//   - pluggable index functions, so the same machine runs under the
//     unconstrained skewing functions of [17] (§8.2–8.4) or the
//     hardware-constrained EV8 functions (package ev8, §8.5).
package core

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/skew"
)

// Bank identifies one of the four logical tables.
type Bank int

// The four logical banks of 2Bc-gskew.
const (
	BIM Bank = iota
	G0
	G1
	Meta
	NumBanks
)

// String returns the paper's name for the bank.
func (b Bank) String() string {
	switch b {
	case BIM:
		return "BIM"
	case G0:
		return "G0"
	case G1:
		return "G1"
	case Meta:
		return "Meta"
	default:
		return "invalid"
	}
}

// BankConfig sizes one logical bank.
type BankConfig struct {
	// Entries is the prediction-array size (a power of two).
	Entries int
	// HystEntries is the hysteresis-array size; 0 means equal to
	// Entries (a conventional monolithic 2-bit counter bank).
	HystEntries int
	// HistLen is the number of history bits in the bank's index function.
	HistLen int
}

// Config describes a full 2Bc-gskew predictor.
type Config struct {
	// Banks holds the per-bank configurations, indexed by Bank.
	Banks [NumBanks]BankConfig
	// PartialUpdate selects the §4.2 partial update policy; false selects
	// total update (every bank steps toward the outcome every branch).
	PartialUpdate bool
	// UsePath mixes the addresses of the three previous fetch blocks
	// (Info.Path) into the default index functions — the "path
	// information from the three last fetch blocks" of §5.2 that the
	// EV8 information vector adds on top of the 3-blocks-old lghist.
	// Ignored when a custom IndexSet is supplied.
	UsePath bool
	// Indexes computes the four bank indices for a branch; nil selects
	// DefaultIndexSet (the unconstrained skewing functions of [17]).
	Indexes IndexSet
	// Name labels the configuration in reports; empty derives one.
	Name string
}

// IndexSet computes the four bank indices for an information vector. The
// EV8 hardware-constrained index functions (package ev8) implement this
// same contract, so the core predictor is index-scheme agnostic.
type IndexSet func(info *history.Info) [NumBanks]uint64

// Predictor is a 2Bc-gskew predictor instance.
type Predictor struct {
	cfg   Config
	banks [NumBanks]*counter.Split
	name  string
	// customIndexes records that cfg.Indexes was caller-supplied, i.e. the
	// configuration is not canonicalizable (ConfigKey returns "").
	customIndexes bool
	// ip holds the precomputed default index parameters (nil under a
	// custom IndexSet); the batch index stage inlines over it instead of
	// calling through the IndexSet function value.
	ip *indexParams
	// st holds the attribution counters when collection is enabled
	// (stats.Instrumented); nil — the default — keeps the update path
	// attribution-free apart from this one pointer check.
	st *coreStats
}

// New validates cfg and builds the predictor.
func New(cfg Config) (*Predictor, error) {
	for b := BIM; b < NumBanks; b++ {
		bc := &cfg.Banks[b]
		if bc.Entries <= 0 || !bitutil.IsPow2(uint64(bc.Entries)) {
			return nil, fmt.Errorf("core: %v entries %d not a positive power of two", b, bc.Entries)
		}
		if bc.HystEntries == 0 {
			bc.HystEntries = bc.Entries
		}
		if bc.HistLen < 0 || bc.HistLen > history.MaxLen {
			return nil, fmt.Errorf("core: %v history length %d out of range", b, bc.HistLen)
		}
	}
	p := &Predictor{cfg: cfg, customIndexes: cfg.Indexes != nil}
	for b := BIM; b < NumBanks; b++ {
		s, err := counter.NewSplit(cfg.Banks[b].Entries, cfg.Banks[b].HystEntries)
		if err != nil {
			return nil, fmt.Errorf("core: %v: %w", b, err)
		}
		p.banks[b] = s
	}
	if p.cfg.Indexes == nil {
		p.ip = newIndexParams(cfg)
		p.cfg.Indexes = p.ip.index
	}
	p.name = cfg.Name
	if p.name == "" {
		p.name = fmt.Sprintf("2Bc-gskew-%dKbit", p.SizeBits()/1024)
	}
	return p, nil
}

// MustNew is New but panics on error; for the fixed paper configurations.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// indexParams holds the per-bank constants of the default index functions
// in fixed arrays. Keeping them in a struct (rather than closure captures)
// and ranging the skewed banks with a plain counted loop keeps the
// per-branch path free of slice literals and heap allocation — the index
// computation is the innermost loop of every simulation. indexInto is the
// family's one index evaluator: the scalar IndexSet (index) and the batch
// index stage (LookupBatch) both call it.
type indexParams struct {
	bits     [NumBanks]uint
	pcMask   [NumBanks]uint64        // Mask(bits): PCBits without the branches
	histMask [NumBanks]uint64        // Mask(HistLen): HistMask likewise
	fns      [NumBanks]skew.Compiled // G0..Meta, bound to bits+HistLen; BIM is unskewed
	bimHist  int                     // BIM history length, folded to bits[BIM]
	usePath  bool
}

// index computes the four bank indices for an information vector.
func (ip *indexParams) index(info *history.Info) [NumBanks]uint64 {
	var idx [NumBanks]uint64
	ip.indexInto(info, &idx)
	return idx
}

// indexInto computes the four bank indices for an information vector
// into idx.
func (ip *indexParams) indexInto(info *history.Info, idx *[NumBanks]uint64) {
	var pathHash uint64
	if ip.usePath {
		// A few bits from each of the three previous block
		// addresses, as §5.2 uses them: cheap, fixed extraction.
		pathHash = bitutil.Field(info.Path[0], 5, 4) ^
			bitutil.Field(info.Path[1], 5, 4)<<2 ^
			bitutil.Field(info.Path[2], 5, 4)<<4
	}
	pc := info.PC >> 2
	bim := pc & ip.pcMask[BIM]
	if ip.bimHist > 0 {
		bim ^= bitutil.FoldXOR(info.Hist, ip.bimHist, int(ip.bits[BIM]))
	}
	idx[BIM] = bim ^ pathHash&ip.pcMask[BIM]
	for b := G0; b <= Meta; b++ {
		v := pc&ip.pcMask[b] | (info.Hist&ip.histMask[b])<<ip.bits[b]
		v ^= pathHash << (ip.bits[b] / 2)
		idx[b] = ip.fns[b].Index(v)
	}
}

// newIndexParams precomputes the default index functions for cfg: the
// masks, and the skewing functions compiled to their closed form bound to
// each bank's vector length (skew.Compile), so the per-branch index work
// is straight-line arithmetic with no iterated H/Hinv steps.
func newIndexParams(cfg Config) *indexParams {
	ip := &indexParams{usePath: cfg.UsePath, bimHist: cfg.Banks[BIM].HistLen}
	for b := BIM; b < NumBanks; b++ {
		bits := bitutil.Log2(uint64(cfg.Banks[b].Entries))
		ip.bits[b] = uint(bits)
		ip.pcMask[b] = bitutil.Mask(bits)
		ip.histMask[b] = bitutil.Mask(cfg.Banks[b].HistLen)
		if b >= G0 {
			ip.fns[b] = skew.MustFamily(bits, 3)[int(b-G0)].Compile(bits + cfg.Banks[b].HistLen)
		}
	}
	return ip
}

// DefaultIndexSet builds the unconstrained index functions used everywhere
// in §8 except §8.5: BIM indexed by address (XORed with its folded history
// when a BIM history length is configured), and G0/G1/Meta indexed by three
// distinct skewing functions of (address, per-bank-truncated history).
func DefaultIndexSet(cfg Config) IndexSet {
	return newIndexParams(cfg).index
}

// lookup reads the four prediction bits for the computed indices.
func (p *Predictor) lookup(idx [NumBanks]uint64) (pbim, p0, p1, pmeta bool) {
	return p.banks[BIM].Pred(idx[BIM]),
		p.banks[G0].Pred(idx[G0]),
		p.banks[G1].Pred(idx[G1]),
		p.banks[Meta].Pred(idx[Meta])
}

// b2i is the branch predictor's favorite function.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// combine applies the 2Bc-gskew combination: Meta taken selects the
// e-gskew majority vote, Meta not-taken selects the bimodal prediction.
func combine(pbim, p0, p1, pmeta bool) (final, egskew bool) {
	egskew = b2i(pbim)+b2i(p0)+b2i(p1) >= 2
	if pmeta {
		return egskew, egskew
	}
	return pbim, egskew
}

// Lookup implements predictor.FusedPredictor: the whole per-branch read
// side — index computation, the four bank reads, and both combination
// verdicts — evaluated once and packaged for update time.
func (p *Predictor) Lookup(info *history.Info) predictor.Snapshot {
	idx := p.cfg.Indexes(info)
	pbim, p0, p1, pmeta := p.lookup(idx)
	final, egskew := combine(pbim, p0, p1, pmeta)
	return predictor.Snapshot{
		Idx:   idx,
		Preds: uint8(b2i(pbim)) | uint8(b2i(p0))<<uint(G0) | uint8(b2i(p1))<<uint(G1) | uint8(b2i(pmeta))<<uint(Meta),
		Final: final,
		Aux:   egskew,
	}
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(info *history.Info) bool {
	pbim, p0, p1, pmeta := p.lookup(p.cfg.Indexes(info))
	final, _ := combine(pbim, p0, p1, pmeta)
	return final
}

// Components exposes the per-bank predictions for one branch (for tests,
// debugging and the ablation harness).
func (p *Predictor) Components(info *history.Info) (pbim, p0, p1, pmeta, final bool) {
	pbim, p0, p1, pmeta = p.lookup(p.cfg.Indexes(info))
	final, _ = combine(pbim, p0, p1, pmeta)
	return
}

// Update implements predictor.Predictor with the §4.2 update policy.
func (p *Predictor) Update(info *history.Info, taken bool) {
	p.updateAt(p.cfg.Indexes(info), taken)
}

// UpdateWith implements predictor.FusedPredictor: the carried indices are
// reused — the skew hashes and history folds are never re-derived — while
// the direction bits are re-read from the banks (four bit-array reads).
// Re-reading keeps the update policy's view of the counters identical to
// the unfused path under commit delay, where an aliased entry may have
// been trained by another branch between fetch and retirement.
func (p *Predictor) UpdateWith(s predictor.Snapshot, taken bool) {
	p.updateAt(s.Idx, taken)
}

// updateAt applies the configured update policy at the given indices.
// Attribution (package stats) hangs off this single gate: one nil check
// when disabled, the instrumented twin — identical writes, wrapped in
// counting — when enabled.
func (p *Predictor) updateAt(idx [NumBanks]uint64, taken bool) {
	pbim, p0, p1, pmeta := p.lookup(idx)
	final, egskew := combine(pbim, p0, p1, pmeta)
	if p.st != nil {
		p.updateAtInstrumented(idx, pbim, p0, p1, pmeta, final, egskew, taken)
		return
	}
	p.applyUpdate(idx, pbim, p0, p1, pmeta, final, egskew, taken)
}

// applyUpdate performs the policy writes for one branch. It is the single
// write path shared by the plain and instrumented updates, so attribution
// can never diverge from the machine it observes.
func (p *Predictor) applyUpdate(idx [NumBanks]uint64, pbim, p0, p1, pmeta, final, egskew, taken bool) {
	if !p.cfg.PartialUpdate {
		// Total update ablation: step everything toward the outcome,
		// and the chooser toward whichever side was correct.
		if pbim != egskew {
			p.banks[Meta].Update(idx[Meta], egskew == taken)
		}
		p.banks[BIM].Update(idx[BIM], taken)
		p.banks[G0].Update(idx[G0], taken)
		p.banks[G1].Update(idx[G1], taken)
		return
	}

	if final == taken {
		p.updateCorrect(idx, pbim, p0, p1, pmeta, egskew, taken)
		return
	}
	p.updateWrong(idx, pbim, p0, p1, pmeta, egskew, taken)
}

// updateCorrect implements the correct-prediction half of the policy.
func (p *Predictor) updateCorrect(idx [NumBanks]uint64, pbim, p0, p1, pmeta, egskew, taken bool) {
	if pbim == p0 && p0 == p1 {
		// Rationale 1: all three agree — leave every counter untouched
		// so another (address, history) pair can steal entries without
		// destroying this majority.
		return
	}
	// Strengthen Meta if the two predictions differed (it just chose
	// correctly between them).
	if pbim != egskew {
		p.banks[Meta].Strengthen(idx[Meta], pmeta)
	}
	if !pmeta {
		// The bimodal prediction was used: strengthen BIM only.
		p.banks[BIM].Strengthen(idx[BIM], taken)
		return
	}
	// The majority vote was used: strengthen every bank that voted with
	// the outcome.
	if pbim == taken {
		p.banks[BIM].Strengthen(idx[BIM], taken)
	}
	if p0 == taken {
		p.banks[G0].Strengthen(idx[G0], taken)
	}
	if p1 == taken {
		p.banks[G1].Strengthen(idx[G1], taken)
	}
}

// updateWrong implements the misprediction half of the policy.
func (p *Predictor) updateWrong(idx [NumBanks]uint64, pbim, p0, p1, pmeta, egskew, taken bool) {
	if pbim != egskew {
		// Rationale 2: the other component was right — retarget the
		// chooser first, then recompute.
		p.banks[Meta].Update(idx[Meta], egskew == taken)
		newMeta := p.banks[Meta].Pred(idx[Meta])
		newFinal := pbim
		if newMeta {
			newFinal = egskew
		}
		if newFinal == taken {
			// The redirected prediction is correct: strengthen its
			// participating banks and stop — no need to steal entries
			// from other (address, history) pairs.
			if !newMeta {
				p.banks[BIM].Strengthen(idx[BIM], taken)
				return
			}
			if pbim == taken {
				p.banks[BIM].Strengthen(idx[BIM], taken)
			}
			if p0 == taken {
				p.banks[G0].Strengthen(idx[G0], taken)
			}
			if p1 == taken {
				p.banks[G1].Strengthen(idx[G1], taken)
			}
			return
		}
	}
	// Both components wrong (or still wrong after the chooser move):
	// update all banks.
	p.banks[BIM].Update(idx[BIM], taken)
	p.banks[G0].Update(idx[G0], taken)
	p.banks[G1].Update(idx[G1], taken)
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// SizeBits implements predictor.Predictor: the sum of the four banks'
// prediction and hysteresis arrays.
func (p *Predictor) SizeBits() int {
	total := 0
	for b := BIM; b < NumBanks; b++ {
		total += p.banks[b].SizeBits()
	}
	return total
}

// PredictionBits returns the prediction-array budget only (the paper's
// "208 Kbits for prediction").
func (p *Predictor) PredictionBits() int {
	total := 0
	for b := BIM; b < NumBanks; b++ {
		total += p.banks[b].PredEntries()
	}
	return total
}

// HysteresisBits returns the hysteresis-array budget only ("144 Kbits for
// hysteresis").
func (p *Predictor) HysteresisBits() int {
	total := 0
	for b := BIM; b < NumBanks; b++ {
		total += p.banks[b].HystEntries()
	}
	return total
}

// BankState exposes a bank's counter state for tests.
func (p *Predictor) BankState(b Bank, idx uint64) uint8 { return p.banks[b].State(idx) }

// Traffic sums the array traffic across the four banks: prediction-array
// writes, hysteresis-array writes and hysteresis-array reads. Under the
// §4.2 partial update policy this traffic is substantially lower than
// under total update — the §4.3 hardware argument, checked by tests and
// reported by the ablation harness.
func (p *Predictor) Traffic() (predWrites, hystWrites, hystReads int64) {
	for b := BIM; b < NumBanks; b++ {
		pw, hw, hr := p.banks[b].Traffic()
		predWrites += pw
		hystWrites += hw
		hystReads += hr
	}
	return
}

// Config returns the predictor's configuration (with defaults resolved).
func (p *Predictor) Config() Config { return p.cfg }

// Reset implements predictor.Predictor. Attribution counters are zeroed
// too, but collection stays enabled if it was (a reused predictor keeps
// reporting).
func (p *Predictor) Reset() {
	for b := BIM; b < NumBanks; b++ {
		p.banks[b].Reset()
	}
	if p.st != nil {
		*p.st = coreStats{}
	}
}

var _ predictor.Predictor = (*Predictor)(nil)
var _ predictor.FusedPredictor = (*Predictor)(nil)
