package ev8

import (
	"testing"
	"testing/quick"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/rng"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func TestBankNumberNeverEqualsPrevious(t *testing.T) {
	f := func(yAddr uint64, zBank uint8) bool {
		return BankNumber(yAddr, zBank&3) != zBank&3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankNumberUsesY6Y5(t *testing.T) {
	// With no collision, the bank is exactly (y6,y5).
	y := uint64(0b110_0000) // y6=1, y5=1 -> bank 3
	if got := BankNumber(y, 0); got != 3 {
		t.Errorf("bank = %d, want 3", got)
	}
	// Collision flips y5.
	if got := BankNumber(y, 3); got != 2 {
		t.Errorf("bank on collision = %d, want 2", got)
	}
}

func TestBankSequenceConflictFreeOnRandomBlocks(t *testing.T) {
	// Property (§6.2): over an arbitrary dynamic block sequence, two
	// successive fetch blocks never map to the same bank.
	p := MustNew(DefaultConfig())
	r := rng.New(99, 0)
	addr := uint64(0x1000)
	last := int16(-1)
	for i := 0; i < 100000; i++ {
		next := addr + 32
		switch {
		case r.Bool(0.1):
			next = addr // tight single-block loop
		case r.Bool(0.4):
			next = uint64(r.Intn(1<<20)) * 4
		}
		bank := observeBank(p, addr, next)
		if bank == last {
			t.Fatalf("step %d: consecutive blocks share bank %d", i, bank)
		}
		last = bank
		addr = next
	}
}

// observeBank sequences one block through p and returns the bank the
// sequencer assigned it.
func observeBank(p *Predictor, addr, next uint64) int16 {
	p.ObserveBlock(frontend.Block{Addr: addr, Next: next})
	return p.lastBank
}

func TestBankSequencerLookupRecent(t *testing.T) {
	p := MustNew(DefaultConfig())
	seq := &p.seq
	observeBank(p, 0x1000, 0x2000)
	b1 := seq.bankFor(0x1000)
	observeBank(p, 0x2000, 0x3000)
	// The completed block 0x1000 must still resolve to its bank.
	if got := seq.bankFor(0x1000); got != b1 {
		t.Errorf("recent lookup = %d, want %d", got, b1)
	}
	// The in-progress block 0x3000 has a bank too.
	if seq.bankFor(0x3000) == seq.bankFor(0x2000) {
		t.Error("in-progress block shares bank with predecessor")
	}
}

func TestPaperBudget(t *testing.T) {
	p := MustNew(DefaultConfig())
	if p.SizeBits() != 352*1024 {
		t.Errorf("size = %d bits, want 352 Kbit", p.SizeBits())
	}
	if p.PredictionBits() != 208*1024 {
		t.Errorf("prediction = %d bits", p.PredictionBits())
	}
	if p.HysteresisBits() != 144*1024 {
		t.Errorf("hysteresis = %d bits", p.HysteresisBits())
	}
	if p.Name() != "EV8-352Kbit" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestIndexBitsWithinTableRange(t *testing.T) {
	p := MustNew(DefaultConfig())
	cfg := p.core.Config()
	idxFn := cfg.Indexes
	r := rng.New(5, 5)
	for i := 0; i < 20000; i++ {
		info := &history.Info{
			PC:      uint64(r.Intn(1<<22) * 4),
			BlockPC: uint64(r.Intn(1<<22)*4) &^ 31,
			Hist:    r.Uint64(),
			Path:    [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()},
		}
		idx := idxFn(info)
		for b := core.BIM; b < core.NumBanks; b++ {
			if idx[b] >= uint64(cfg.Banks[b].Entries) {
				t.Fatalf("bank %v index %d out of range %d", b, idx[b], cfg.Banks[b].Entries)
			}
		}
	}
}

func TestSingleHistoryBitDiscrimination(t *testing.T) {
	// §7.5 principle 2: two histories differing in ONE bit (within a
	// table's window) must not map to the same entry in that table.
	p := MustNew(DefaultConfig())
	cfg := p.core.Config()
	idxFn := cfg.Indexes
	base := &history.Info{
		PC:      0x1234 * 4,
		BlockPC: (0x1234 * 4) &^ 31,
		Hist:    0x0f5a3,
		Path:    [3]uint64{0xabc0, 0xdef0, 0x1230},
	}
	baseIdx := idxFn(base)
	histLens := map[core.Bank]int{
		core.BIM:  4,
		core.G0:   13,
		core.G1:   21,
		core.Meta: 15,
	}
	for b, hl := range histLens {
		for bit := 0; bit < hl; bit++ {
			mod := *base
			mod.Hist = base.Hist ^ (1 << uint(bit))
			if idxFn(&mod)[b] == baseIdx[b] {
				t.Errorf("bank %v: flipping h%d does not change the index", b, bit)
			}
		}
	}
}

func TestTwoHistoryBitDiscriminationAcrossTables(t *testing.T) {
	// §7.5 principle 2, two-bit case: for the same block, two histories
	// differing in two bits should not collide in EVERY table (the
	// majority vote must survive). Check over random bit pairs.
	p := MustNew(DefaultConfig())
	idxFn := p.core.Config().Indexes
	base := &history.Info{
		PC:      0x40404,
		BlockPC: 0x40400,
		Hist:    0x15555,
		Path:    [3]uint64{0x100, 0x200, 0x300},
	}
	baseIdx := idxFn(base)
	for b1 := 0; b1 < 13; b1++ {
		for b2 := b1 + 1; b2 < 13; b2++ {
			mod := *base
			mod.Hist = base.Hist ^ (1 << uint(b1)) ^ (1 << uint(b2))
			modIdx := idxFn(&mod)
			allSame := true
			for _, b := range []core.Bank{core.G0, core.G1, core.Meta} {
				if modIdx[b] != baseIdx[b] {
					allSame = false
					break
				}
			}
			if allSame {
				t.Errorf("flipping h%d,h%d collides in all history tables", b1, b2)
			}
		}
	}
}

func TestColumnBitsUseTwoInputXOR(t *testing.T) {
	// The §7.1 constraint: each column bit may use at most one 2-input
	// XOR gate. Verify structurally on the table definitions.
	for name, tbl := range map[string]*tableIndex{
		"BIM": &bimIndex, "G0": &g0Index, "G1": &g1Index, "Meta": &metaIndex,
	} {
		for i, x := range tbl.column {
			inputs := popcount(x.aMask) + popcount(x.hMask) + popcount(x.zMask) + popcount(x.yMask)
			if inputs > 2 {
				t.Errorf("%s column bit %d uses %d inputs (max 2)", name, i, inputs)
			}
			if inputs == 0 {
				t.Errorf("%s column bit %d uses no inputs", name, i)
			}
		}
	}
}

func TestWordlineIsUnhashed(t *testing.T) {
	// Wordline bits must be direct extractions: (h3..h0, a8, a7).
	// a7=1, a8=1, h0=0,h1=1,h2=0,h3=1 -> (i10..i5) = 101011.
	if got := wordlineEV8(0b1_1000_0000, 0b1010); got != 0b101011 {
		t.Errorf("wordline = %#b, want 101011", got)
	}
	if got := wordlineAddrOnly(0b1_1111_1000_0000); got != 0b111111 {
		t.Errorf("addr wordline = %#b", got)
	}
}

func TestG0MetaShareTopColumnBits(t *testing.T) {
	// §7.5: "G0 and Meta share i15 and i14".
	for i := 0; i < 2; i++ {
		if g0Index.column[i] != metaIndex.column[i] {
			t.Errorf("G0 and Meta differ on shared column bit i%d", 15-i)
		}
	}
}

func TestColumnPairsDifferAcrossTables(t *testing.T) {
	// §7.5 principle 3: different pairs of history bits are XORed for
	// the column bits of the three tables (excluding the shared
	// G0/Meta i15,i14).
	seen := map[uint64]string{}
	record := func(name string, trees []xorTree, skipShared bool) {
		for i, x := range trees {
			if skipShared && i < 2 {
				continue
			}
			if x.hMask != 0 && popcount(x.hMask) == 2 {
				if prev, dup := seen[x.hMask]; dup && prev != name {
					t.Errorf("history pair %#x reused by %s and %s", x.hMask, prev, name)
				}
				seen[x.hMask] = name
			}
		}
	}
	record("G0", g0Index.column, true)
	record("Meta", metaIndex.column, false)
	record("G1", g1Index.column, false)
}

func TestLearnsBiasedBranchStandalone(t *testing.T) {
	// Without block observation the predictor must still work (fallback
	// bank assignment).
	p := MustNew(DefaultConfig())
	info := &history.Info{PC: 0x8000, BlockPC: 0x8000, Hist: 0x3c3}
	for i := 0; i < 6; i++ {
		p.Update(info, true)
	}
	if !p.Predict(info) {
		t.Error("EV8 failed to learn a biased branch")
	}
}

func TestFullPipelineNoBankConflicts(t *testing.T) {
	// End-to-end §6 check: run the EV8 predictor over a real workload
	// through the simulator (which wires ObserveBlock) and require ZERO
	// successive-block bank conflicts.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	p := MustNew(DefaultConfig())
	r, err := sim.RunBenchmark(p, prof, 200_000, sim.Options{Mode: frontend.ModeEV8()})
	if err != nil {
		t.Fatal(err)
	}
	if p.BlocksObserved() == 0 {
		t.Fatal("predictor observed no fetch blocks (sim wiring broken)")
	}
	if p.BankConflicts() != 0 {
		t.Errorf("%d successive-block bank conflicts (must be 0)", p.BankConflicts())
	}
	if r.Accuracy() < 0.8 {
		t.Errorf("EV8 accuracy %.3f suspiciously low", r.Accuracy())
	}
	// All four banks should actually be used.
	use := p.BankUse()
	for b, n := range use {
		if n == 0 {
			t.Errorf("bank %d never used", b)
		}
	}
}

func TestEV8AccuracyCloseToUnconstrained(t *testing.T) {
	// §8.5's headline: the hardware-constrained 352Kbit EV8 predictor
	// stands comparison with the unconstrained 512Kbit 2Bc-gskew under
	// the same information vector. Allow a modest margin.
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: frontend.ModeEV8()}
	ev8r, err := sim.RunBenchmark(MustNew(DefaultConfig()), prof, 400_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	uncon, err := sim.RunBenchmark(core.MustNew(core.Config512KLghist()), prof, 400_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ev8r.MispKI() > uncon.MispKI()*1.5+0.5 {
		t.Errorf("EV8 %.3f misp/KI too far above unconstrained %.3f",
			ev8r.MispKI(), uncon.MispKI())
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func BenchmarkEV8PredictUpdate(b *testing.B) {
	p := MustNew(DefaultConfig())
	info := &history.Info{PC: 0x8000, BlockPC: 0x8000}
	for i := 0; i < b.N; i++ {
		info.PC = uint64(0x8000 + (i%2048)*4)
		info.BlockPC = info.PC &^ 31
		info.Hist = uint64(i) * 0x9e3779b97f4a7c15
		_ = p.Predict(info)
		p.Update(info, i&3 != 0)
	}
}

func TestFetchCycleStatistics(t *testing.T) {
	// The §2 fetch model: two blocks per cycle, up to 16 conditional
	// predictions per cycle. Run a real workload and check the
	// histogram's integrity.
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := MustNew(DefaultConfig())
	if _, err := sim.RunBenchmark(p, prof, 300_000, sim.Options{Mode: frontend.ModeEV8()}); err != nil {
		t.Fatal(err)
	}
	if p.Cycles() == 0 {
		t.Fatal("no fetch cycles modeled")
	}
	// Cycles pair blocks: cycles ~ blocks/2.
	if got, want := p.Cycles(), p.BlocksObserved()/2; got < want-1 || got > want+1 {
		t.Errorf("cycles = %d, want ~%d", got, want)
	}
	hist := p.CondsPerCycleHistogram()
	var total, conds int64
	for k, n := range hist {
		if n < 0 {
			t.Fatalf("negative histogram bucket %d", k)
		}
		total += n
		conds += int64(k) * n
	}
	if total != p.Cycles() {
		t.Errorf("histogram mass %d != cycles %d", total, p.Cycles())
	}
	if conds == 0 {
		t.Error("no conditional branches in any cycle")
	}
	// Multi-branch cycles must occur (the reason the predictor delivers
	// up to 16 predictions per cycle at all).
	multi := int64(0)
	for k := 2; k <= 16; k++ {
		multi += hist[k]
	}
	if multi == 0 {
		t.Error("no cycle ever predicted more than one branch")
	}
}
