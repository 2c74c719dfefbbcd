package core

import (
	"testing"

	"ev8pred/internal/counter"
	"ev8pred/internal/history"
)

func info(pc, hist uint64) *history.Info {
	return &history.Info{PC: pc, BlockPC: pc &^ 31, Hist: hist}
}

func TestConfigValidation(t *testing.T) {
	c := Config512K()
	c.Banks[G0].Entries = 1000 // not a power of two
	if _, err := New(c); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	c = Config512K()
	c.Banks[G1].HistLen = 100
	if _, err := New(c); err == nil {
		t.Error("oversized history accepted")
	}
	c = Config512K()
	c.Banks[Meta].HystEntries = c.Banks[Meta].Entries * 2
	if _, err := New(c); err == nil {
		t.Error("hysteresis larger than prediction accepted")
	}
	c = Config512K()
	c.Banks[G1].Entries = 2 // one index bit: too narrow for a skewing function
	if _, err := New(c); err == nil {
		t.Error("a skewed bank of one index bit accepted")
	}
}

func TestBankString(t *testing.T) {
	names := map[Bank]string{BIM: "BIM", G0: "G0", G1: "G1", Meta: "Meta", Bank(9): "invalid"}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("Bank(%d).String() = %q", b, b.String())
		}
	}
}

func TestPaperBudgets(t *testing.T) {
	// The headline numbers of the paper: 352 Kbits total, 208 Kbits of
	// prediction, 144 Kbits of hysteresis.
	p := MustNew(ConfigEV8Size())
	if got := p.SizeBits(); got != 352*1024 {
		t.Errorf("EV8 size = %d bits, want 352 Kbit", got)
	}
	if got := p.PredictionBits(); got != 208*1024 {
		t.Errorf("prediction bits = %d, want 208 Kbit", got)
	}
	if got := p.HysteresisBits(); got != 144*1024 {
		t.Errorf("hysteresis bits = %d, want 144 Kbit", got)
	}
	if got := MustNew(Config256K()).SizeBits(); got != 256*1024 {
		t.Errorf("256K config = %d bits", got)
	}
	if got := MustNew(Config512K()).SizeBits(); got != 512*1024 {
		t.Errorf("512K config = %d bits", got)
	}
	if got := MustNew(Config4M()).SizeBits(); got != 8*1024*1024 {
		t.Errorf("4x1M config = %d bits", got)
	}
}

func TestHistoryLengthOrdering(t *testing.T) {
	// §4.5: medium history for G0, longest for G1, in every preset.
	for _, cfg := range []Config{Config256K(), Config512K(), Config512KLghist(), ConfigEV8Size(), Config4M()} {
		g0, g1, meta := cfg.Banks[G0].HistLen, cfg.Banks[G1].HistLen, cfg.Banks[Meta].HistLen
		if !(g0 <= meta && meta <= g1) {
			t.Errorf("%s: history lengths G0=%d Meta=%d G1=%d violate G0<=Meta<=G1",
				cfg.Name, g0, meta, g1)
		}
	}
}

func TestInitialPredictionNotTaken(t *testing.T) {
	p := MustNew(Config256K())
	if p.Predict(info(0x1000, 0)) {
		t.Error("cold predictor should predict not-taken")
	}
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := MustNew(Config256K())
	in := info(0x4444, 0x5a5a)
	for i := 0; i < 4; i++ {
		p.Update(in, true)
	}
	if !p.Predict(in) {
		t.Error("strongly-taken branch still predicted not-taken after training")
	}
}

func TestRationale1NoUpdateWhenAllAgree(t *testing.T) {
	p := MustNew(Config256K())
	in := info(0x8888, 0x1234)
	// Train until every component agrees taken.
	for i := 0; i < 10; i++ {
		p.Update(in, true)
	}
	pbim, p0, p1, _, final := p.Components(in)
	if !(pbim && p0 && p1 && final) {
		t.Fatalf("training failed: %v %v %v %v", pbim, p0, p1, final)
	}
	// Snapshot all bank states at this branch's indices.
	idx := p.Config().Indexes(in)
	var before [NumBanks]uint8
	for b := BIM; b < NumBanks; b++ {
		before[b] = p.BankState(b, idx[b])
	}
	// A further correct, all-agreeing outcome must not touch any counter.
	p.Update(in, true)
	for b := BIM; b < NumBanks; b++ {
		if got := p.BankState(b, idx[b]); got != before[b] {
			t.Errorf("bank %v changed %d -> %d despite Rationale 1", b, before[b], got)
		}
	}
}

func TestMetaStrengthenedWhenComponentsDiffer(t *testing.T) {
	p := MustNew(Config256K())
	in := info(0xabcd, 0x777)
	idx := p.Config().Indexes(in)
	// Force BIM taken, G0/G1 not-taken: e-gskew majority says NT, BIM T.
	// Meta initially weak-NT -> chooses BIM -> predicts taken.
	forceState(p, BIM, idx[BIM], counter.StrongTaken)
	forceState(p, G0, idx[G0], counter.WeakNotTaken)
	forceState(p, G1, idx[G1], counter.WeakNotTaken)
	if !p.Predict(in) {
		t.Fatal("setup: expected taken prediction via BIM")
	}
	// Outcome taken: correct, components differ -> Meta strengthened
	// toward BIM (strong not-taken in meta's encoding).
	p.Update(in, true)
	if got := p.BankState(Meta, idx[Meta]); got != counter.StrongNotTaken {
		t.Errorf("meta state = %d, want strong not-taken (BIM side)", got)
	}
}

func TestMispredictionRetargetsChooser(t *testing.T) {
	p := MustNew(Config256K())
	in := info(0x1357, 0x2468)
	idx := p.Config().Indexes(in)
	// BIM wrong (strong NT), e-gskew right (G0,G1 strong T); Meta
	// weak-NT chooses BIM -> final NT. Outcome: taken (mispredict).
	forceState(p, BIM, idx[BIM], counter.StrongNotTaken)
	forceState(p, G0, idx[G0], counter.StrongTaken)
	forceState(p, G1, idx[G1], counter.StrongTaken)
	forceState(p, Meta, idx[Meta], counter.WeakNotTaken)
	if p.Predict(in) {
		t.Fatal("setup: expected not-taken prediction via BIM")
	}
	p.Update(in, true)
	// Rationale 2: the chooser flips to the e-gskew side (weak taken);
	// the new prediction is correct, so participating correct banks are
	// strengthened and BIM is NOT dragged toward taken.
	if got := p.BankState(Meta, idx[Meta]); got != counter.WeakTaken {
		t.Errorf("meta state = %d, want weak taken after retarget", got)
	}
	if got := p.BankState(BIM, idx[BIM]); got != counter.StrongNotTaken {
		t.Errorf("BIM state = %d, want untouched strong not-taken", got)
	}
	if got := p.BankState(G0, idx[G0]); got != counter.StrongTaken {
		t.Errorf("G0 state = %d, want strong taken", got)
	}
	if !p.Predict(in) {
		t.Error("after retarget the prediction should be taken")
	}
}

func TestBothComponentsWrongUpdatesAllBanks(t *testing.T) {
	p := MustNew(Config256K())
	in := info(0x9990, 0x111)
	idx := p.Config().Indexes(in)
	forceState(p, BIM, idx[BIM], counter.StrongNotTaken)
	forceState(p, G0, idx[G0], counter.StrongNotTaken)
	forceState(p, G1, idx[G1], counter.StrongNotTaken)
	metaBefore := p.BankState(Meta, idx[Meta])
	p.Update(in, true) // mispredict; both components said NT
	for _, b := range []Bank{BIM, G0, G1} {
		if got := p.BankState(b, idx[b]); got != counter.WeakNotTaken {
			t.Errorf("bank %v state = %d, want weakened to weak not-taken", b, got)
		}
	}
	if got := p.BankState(Meta, idx[Meta]); got != metaBefore {
		t.Errorf("meta changed %d -> %d with no disagreement signal", metaBefore, got)
	}
}

func TestTotalUpdateDiffers(t *testing.T) {
	// Under total update, an all-agreeing correct prediction still
	// strengthens counters (no Rationale 1).
	c := Config256K()
	c.PartialUpdate = false
	p := MustNew(c)
	in := info(0x2222, 0x9999)
	idx := p.Config().Indexes(in)
	forceState(p, BIM, idx[BIM], counter.WeakTaken)
	forceState(p, G0, idx[G0], counter.WeakTaken)
	forceState(p, G1, idx[G1], counter.WeakTaken)
	p.Update(in, true)
	for _, b := range []Bank{BIM, G0, G1} {
		if got := p.BankState(b, idx[b]); got != counter.StrongTaken {
			t.Errorf("total update: bank %v = %d, want strong taken", b, got)
		}
	}
}

func TestDistinctHistoriesUseDistinctEntries(t *testing.T) {
	// Two very different histories at the same PC must not fight over a
	// single entry in every bank (the skewing/dispersion property at the
	// predictor level).
	p := MustNew(Config256K())
	a := info(0x5000, 0x0000)
	b := info(0x5000, 0x3fff)
	for i := 0; i < 8; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) {
		t.Error("history A lost its taken prediction to history B")
	}
	if p.Predict(b) {
		t.Error("history B lost its not-taken prediction to history A")
	}
}

func TestHalfSizeHysteresisStillLearns(t *testing.T) {
	p := MustNew(ConfigEV8Size())
	in := info(0xbeef, 0x1551)
	for i := 0; i < 6; i++ {
		p.Update(in, true)
	}
	if !p.Predict(in) {
		t.Error("EV8-size predictor failed to learn a biased branch")
	}
}

func TestNameDerivation(t *testing.T) {
	c := Config512K()
	c.Name = ""
	p := MustNew(c)
	if p.Name() != "2Bc-gskew-512Kbit" {
		t.Errorf("derived name = %q", p.Name())
	}
}

// forceState drives one bank entry to a target 2-bit state via the
// counter.Split test hook exposed through the predictor's banks.
func forceState(p *Predictor, b Bank, idx uint64, state uint8) {
	p.banks[b].SetState(idx, state)
}

func BenchmarkPredictUpdate512K(b *testing.B) {
	p := MustNew(Config512K())
	in := info(0x1000, 0)
	for i := 0; i < b.N; i++ {
		in.PC = uint64(0x1000 + (i%512)*4)
		in.Hist = uint64(i) * 0x9e3779b97f4a7c15
		taken := i&7 != 0
		_ = p.Predict(in)
		p.Update(in, taken)
	}
}

func TestPartialUpdateReducesArrayTraffic(t *testing.T) {
	// The §4.3 hardware argument: partial update performs fewer counter
	// writes than total update over the same branch stream.
	run := func(partial bool) (predWrites, hystWrites int64) {
		c := Config256K()
		c.PartialUpdate = partial
		p := MustNew(c)
		var hist uint64
		for i := 0; i < 20000; i++ {
			in := info(uint64(0x1000+(i%97)*4), hist)
			taken := i%97%3 != 0
			p.Update(in, taken)
			hist = hist<<1 | uint64(i&1)
		}
		pw, hw, _ := p.Traffic()
		return pw, hw
	}
	pPart, hPart := run(true)
	pTot, hTot := run(false)
	if pPart+hPart >= pTot+hTot {
		t.Errorf("partial update traffic %d not below total update %d",
			pPart+hPart, pTot+hTot)
	}
}

func TestPresetConfigsBuild(t *testing.T) {
	// The Figure 6/8 preset variants must build and keep the documented
	// invariants.
	short512 := Config512KShortHist()
	for _, b := range []Bank{G0, G1, Meta} {
		if short512.Banks[b].HistLen != 16 {
			t.Errorf("512K short-hist %v length = %d, want 16", b, short512.Banks[b].HistLen)
		}
	}
	short256 := Config256KShortHist()
	for _, b := range []Bank{G0, G1, Meta} {
		if short256.Banks[b].HistLen != 15 {
			t.Errorf("256K short-hist %v length = %d, want 15", b, short256.Banks[b].HistLen)
		}
	}
	smallBIM := ConfigSmallBIM()
	if smallBIM.Banks[BIM].Entries != 16*K {
		t.Errorf("small BIM entries = %d", smallBIM.Banks[BIM].Entries)
	}
	for _, cfg := range []Config{short512, short256, smallBIM} {
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	c := Config256K()
	c.Banks[G0].Entries = 3
	MustNew(c)
}

func TestUsePathChangesIndices(t *testing.T) {
	// With UsePath, two identical (PC, history) vectors reaching the
	// predictor along different block paths use different entries.
	c := Config256K()
	c.UsePath = true
	p := MustNew(c)
	a := &history.Info{PC: 0x5000, Hist: 0x123, Path: [3]uint64{0x100, 0x200, 0x300}}
	b := &history.Info{PC: 0x5000, Hist: 0x123, Path: [3]uint64{0x160, 0x260, 0x360}}
	ia, ib := p.Config().Indexes(a), p.Config().Indexes(b)
	if ia == ib {
		t.Error("path information did not affect any index")
	}
	// Without UsePath the paths are ignored.
	p2 := MustNew(Config256K())
	if p2.Config().Indexes(a) != p2.Config().Indexes(b) {
		t.Error("path information leaked into indices without UsePath")
	}
}

func TestUpdateWrongRetargetStillWrong(t *testing.T) {
	// Misprediction with disagreeing components where the chooser
	// retarget does NOT fix the prediction (meta was strongly wrong):
	// all banks must then be updated.
	p := MustNew(Config256K())
	in := info(0x7710, 0x3c3)
	idx := p.Config().Indexes(in)
	// BIM correct side (taken), e-gskew wrong (G0,G1 strong NT), meta
	// STRONG toward e-gskew: one chooser step keeps selecting e-gskew.
	forceState(p, BIM, idx[BIM], counter.StrongTaken)
	forceState(p, G0, idx[G0], counter.StrongNotTaken)
	forceState(p, G1, idx[G1], counter.StrongNotTaken)
	forceState(p, Meta, idx[Meta], counter.StrongTaken) // chooses e-gskew
	if p.Predict(in) {
		t.Fatal("setup: majority should say not-taken")
	}
	p.Update(in, true) // mispredict; retarget weakens meta but still e-gskew
	if got := p.BankState(Meta, idx[Meta]); got != counter.WeakTaken {
		t.Errorf("meta = %d, want weakened to weak taken", got)
	}
	// Banks were updated toward taken: G0/G1 weaken, BIM strengthens.
	if got := p.BankState(G0, idx[G0]); got != counter.WeakNotTaken {
		t.Errorf("G0 = %d, want weak not-taken", got)
	}
	if got := p.BankState(BIM, idx[BIM]); got != counter.StrongTaken {
		t.Errorf("BIM = %d, want strong taken", got)
	}
}
