package frontend

import (
	"strings"
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// mkBranch builds a record; pc/target in instruction units for brevity.
func rec(pc, target uint64, taken bool, gap int, kind trace.Kind) trace.Branch {
	return trace.Branch{PC: pc, Target: target, Taken: taken, Gap: gap, Kind: kind}
}

func TestModeStrings(t *testing.T) {
	cases := map[string]Mode{
		"ghist":          ModeGhist(),
		"lghist,no path": ModeLghistNoPath(),
		"lghist+path":    ModeLghist(),
		"3-old lghist":   ModeOldLghist(),
	}
	for want, m := range cases {
		if m.String() != want {
			t.Errorf("Mode.String() = %q, want %q", m.String(), want)
		}
	}
	odd := Mode{Compressed: true, DelayBlocks: 2}
	if odd.String() != "lghist(delay=2,path=false)" {
		t.Errorf("odd mode = %q", odd.String())
	}
}

// TestModeByNameRoundTrip: each of the five CLI/API names resolves to its
// Figure 7 constructor, and that mode's String is the figure's label, so
// a name → Mode → label round trip lands on the vector the name means.
// (ev8 and old-lghist name the same vector and share a label.) An unknown
// name is refused with the full list of accepted names.
func TestModeByNameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		label string
	}{
		{"ghist", ModeGhist(), "ghist"},
		{"lghist", ModeLghist(), "lghist+path"},
		{"lghist-nopath", ModeLghistNoPath(), "lghist,no path"},
		{"old-lghist", ModeOldLghist(), "3-old lghist"},
		{"ev8", ModeEV8(), "3-old lghist"},
	} {
		m, err := ModeByName(tc.name)
		if err != nil {
			t.Errorf("ModeByName(%q): %v", tc.name, err)
			continue
		}
		if m != tc.mode {
			t.Errorf("ModeByName(%q) = %+v, want %+v", tc.name, m, tc.mode)
		}
		if got := m.String(); got != tc.label {
			t.Errorf("ModeByName(%q).String() = %q, want %q", tc.name, got, tc.label)
		}
	}
	_, err := ModeByName("nonesuch")
	if err == nil || !strings.Contains(err.Error(), "ghist|lghist|lghist-nopath|old-lghist|ev8") {
		t.Errorf("ModeByName(nonesuch): err = %v, want the list of accepted names", err)
	}
}

func TestGhistModeTracksOutcomes(t *testing.T) {
	tr := NewTracker(ModeGhist())
	// Three sequential conditional branches, no taken transfers.
	outcomes := []bool{true, false, true}
	pc := uint64(0x1000)
	var last history.Info
	for _, taken := range outcomes {
		// Taken targets point at the fall-through so flow stays
		// sequential and the PCs below remain consistent.
		info, ok := tr.Process(rec(pc, pc+4, taken, 0, trace.Cond))
		if !ok {
			t.Fatal("cond record did not produce info")
		}
		last = info
		pc += 4
	}
	// The info of the third branch sees the first two outcomes: bit0 =
	// second outcome (false), bit1 = first (true).
	if last.Hist != 0b10 {
		t.Errorf("ghist = %#b, want 10", last.Hist)
	}
}

func TestBlockEndsAtAlignedBoundary(t *testing.T) {
	tr := NewTracker(ModeLghist())
	var blocks []Block
	tr.OnBlock(func(b Block) { blocks = append(blocks, b) })
	// A not-taken branch at 0x101c (last slot of the aligned region
	// starting at 0x1000) must complete the block even though the branch
	// is not taken.
	tr.Process(rec(0x101c, 0x2000, false, 7, trace.Cond))
	if len(blocks) != 1 {
		t.Fatalf("%d blocks completed, want 1", len(blocks))
	}
	b := blocks[0]
	if b.Addr != 0x1000 || b.Next != 0x1020 {
		t.Errorf("block = %+v", b)
	}
	if !b.HasCond || b.LastCondPC != 0x101c || b.LastCondTaken {
		t.Errorf("block cond summary = %+v", b)
	}
}

func TestBlockEndsOnTakenTransfer(t *testing.T) {
	tr := NewTracker(ModeLghist())
	var blocks []Block
	tr.OnBlock(func(b Block) { blocks = append(blocks, b) })
	// Taken conditional at 0x1008 (middle of an aligned region).
	tr.Process(rec(0x1008, 0x4000, true, 2, trace.Cond))
	if len(blocks) != 1 {
		t.Fatalf("%d blocks, want 1", len(blocks))
	}
	if blocks[0].Addr != 0x1000 || blocks[0].Next != 0x4000 {
		t.Errorf("block = %+v", blocks[0])
	}
	// Not-taken conditionals must NOT end blocks.
	blocks = nil
	tr2 := NewTracker(ModeLghist())
	tr2.OnBlock(func(b Block) { blocks = append(blocks, b) })
	tr2.Process(rec(0x1008, 0x4000, false, 2, trace.Cond))
	if len(blocks) != 0 {
		t.Errorf("not-taken branch completed a block: %+v", blocks)
	}
}

func TestGapCrossingBoundariesCompletesBlocks(t *testing.T) {
	tr := NewTracker(ModeLghist())
	var blocks []Block
	tr.OnBlock(func(b Block) { blocks = append(blocks, b) })
	// First record establishes flow at 0x1000. A 20-instruction gap to
	// the next record crosses two aligned boundaries.
	tr.Process(rec(0x1000, 0x1100, false, 0, trace.Cond))
	tr.Process(rec(0x1000+21*4, 0x2000, false, 20, trace.Cond))
	// Boundaries at 0x1020 and 0x1040 completed blocks; the branch at
	// 0x1054 is in the block starting 0x1040 (not yet complete).
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2: %+v", len(blocks), blocks)
	}
	if blocks[0].Next != 0x1020 || blocks[1].Next != 0x1040 {
		t.Errorf("boundary blocks = %+v", blocks)
	}
	if blocks[1].HasCond {
		t.Error("gap-only block reported a conditional branch")
	}
	if !blocks[0].HasCond {
		t.Error("first block lost its conditional branch")
	}
}

func TestLghistOneBitPerBlock(t *testing.T) {
	// Multiple conditionals in one block insert exactly one lghist bit,
	// from the LAST conditional in the block.
	tr := NewTracker(ModeLghistNoPath())
	// Block 0x1000..0x101c: three not-taken conds then a taken cond.
	tr.Process(rec(0x1000, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x1004, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x1008, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x100c, 0x3000, true, 0, trace.Cond))
	if tr.lgBits != 1 {
		t.Fatalf("lghist bits = %d, want 1", tr.lgBits)
	}
	// Next branch (new block): its immediate lghist must be 1 (last
	// cond in previous block was taken, no path bit).
	info, _ := tr.Process(rec(0x3000, 0x5000, false, 0, trace.Cond))
	if info.Hist != 1 {
		t.Errorf("lghist = %#b, want 1", info.Hist)
	}
}

func TestLghistPathBit(t *testing.T) {
	tr := NewTracker(ModeLghist())
	// Taken branch whose PC has bit 4 set: 0x1010. Inserted bit =
	// taken(1) XOR pcbit4(1) = 0.
	tr.Process(rec(0x1010, 0x3000, true, 0, trace.Cond))
	info, _ := tr.Process(rec(0x3000, 0x5000, false, 0, trace.Cond))
	if info.Hist != 0 {
		t.Errorf("path-XORed lghist = %#b, want 0", info.Hist)
	}
}

func TestBlocksWithoutCondInsertNothing(t *testing.T) {
	tr := NewTracker(ModeLghist())
	// A taken jump alone in a block: completes the block, no lghist bit.
	tr.Process(rec(0x1000, 0x9000, true, 0, trace.Jump))
	if tr.Blocks() != 1 || tr.lgBits != 0 {
		t.Errorf("blocks=%d lgbits=%d, want 1/0", tr.Blocks(), tr.lgBits)
	}
}

func TestDelayedLghistIsThreeBlocksOld(t *testing.T) {
	tr := NewTracker(ModeOldLghist())
	// Create four blocks, each ended by a taken conditional, with
	// outcomes T,T,T,T; path bit of each PC is 0.
	pcs := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	for _, pc := range pcs {
		tr.Process(rec(pc, pc+0x1000, true, 0, trace.Cond))
	}
	// The next branch is in block 5. Its delayed history excludes the
	// last three blocks: only block 1's bit (1) is visible.
	info, _ := tr.Process(rec(0x5000, 0x6000, false, 0, trace.Cond))
	if info.Hist != 1 {
		t.Errorf("3-old lghist = %#b, want 1", info.Hist)
	}
	// An undelayed tracker over the same stream sees all four bits.
	tr2 := NewTracker(ModeLghist())
	for _, pc := range pcs {
		tr2.Process(rec(pc, pc+0x1000, true, 0, trace.Cond))
	}
	info2, _ := tr2.Process(rec(0x5000, 0x6000, false, 0, trace.Cond))
	if info2.Hist != 0b1111 {
		t.Errorf("undelayed lghist = %#b, want 1111", info2.Hist)
	}
}

func TestPathQueueHoldsLastThreeBlocks(t *testing.T) {
	tr := NewTracker(ModeEV8())
	tr.Process(rec(0x1000, 0x2000, true, 0, trace.Cond))
	tr.Process(rec(0x2000, 0x3000, true, 0, trace.Cond))
	tr.Process(rec(0x3000, 0x4000, true, 0, trace.Cond))
	info, _ := tr.Process(rec(0x4000, 0x5000, false, 0, trace.Cond))
	want := [3]uint64{0x3000, 0x2000, 0x1000}
	if info.Path != want {
		t.Errorf("Path = %#x, want %#x", info.Path, want)
	}
	if info.BlockPC != 0x4000 {
		t.Errorf("BlockPC = %#x", info.BlockPC)
	}
}

func TestInfoExcludesOwnOutcome(t *testing.T) {
	// A branch's info must not include its own outcome in any mode.
	for _, mode := range []Mode{ModeGhist(), ModeLghist(), ModeOldLghist()} {
		tr := NewTracker(mode)
		info, _ := tr.Process(rec(0x1000, 0x2000, true, 0, trace.Cond))
		if info.Hist != 0 {
			t.Errorf("%v: first branch sees nonzero history %#b", mode, info.Hist)
		}
	}
}

func TestThreadTag(t *testing.T) {
	ts := Threads{Mode: ModeGhist()}
	tr, _ := ts.Tracker(3)
	info, _ := tr.Process(rec(0x1000, 0x2000, false, 0, trace.Cond))
	if info.Thread != 3 {
		t.Errorf("Thread = %d", info.Thread)
	}
}

func TestPanicsOnInconsistentFlow(t *testing.T) {
	tr := NewTracker(ModeGhist())
	tr.Process(rec(0x1000, 0x2000, false, 0, trace.Cond))
	defer func() {
		if recover() == nil {
			t.Error("backwards PC accepted")
		}
	}()
	tr.Process(rec(0x900, 0x2000, false, 0, trace.Cond))
}

func TestBlockGeometryOnRealWorkload(t *testing.T) {
	// Every block formed from a synthetic workload must span at most 8
	// instructions and never cross an aligned 32-byte region.
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.MustNew(prof, 300_000)
	tr := NewTracker(ModeEV8())
	tr.OnBlock(func(b Block) {
		// The block's own instructions must lie within one aligned
		// 8-instruction region (Next may be anywhere — backward loop
		// targets are legal).
		regionEnd := (b.Addr | (BlockBytes - 1)) + 1
		if !b.HasCond {
			return
		}
		if b.LastCondPC < b.Addr || b.LastCondPC >= regionEnd {
			t.Fatalf("block %+v contains branch outside its region", b)
		}
	})
	recs, err := trace.Collect(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range recs {
		tr.Process(b)
	}
	if tr.Blocks() == 0 {
		t.Fatal("no blocks formed")
	}
	// Table 3's premise: one lghist bit summarizes more than one branch
	// on average (lghist/ghist ratio > 1).
	ratio := float64(tr.condSeen) / float64(tr.lgBits)
	if ratio <= 1.0 {
		t.Errorf("branches per lghist bit = %.2f, want > 1", ratio)
	}
}

func TestLinePredictorLearnsStableTransitions(t *testing.T) {
	lp := MustNewLinePredictor(256)
	// Addresses chosen to map to distinct slots of the 256-entry table.
	seq := []Block{
		{Addr: 0x1000, Next: 0x2020},
		{Addr: 0x2020, Next: 0x3040},
		{Addr: 0x3040, Next: 0x1000},
	}
	for round := 0; round < 50; round++ {
		for _, b := range seq {
			lp.Observe(b)
		}
	}
	if acc := lp.Accuracy(); acc < 0.9 {
		t.Errorf("line predictor accuracy %.2f on a stable loop", acc)
	}
	next, ok := lp.Predict(0x1000)
	if !ok || next != 0x2020 {
		t.Errorf("Predict(0x1000) = %#x, %v", next, ok)
	}
}

func TestLinePredictorValidation(t *testing.T) {
	if _, err := NewLinePredictor(100); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := NewLinePredictor(0); err == nil {
		t.Error("zero size accepted")
	}
	lp := MustNewLinePredictor(64)
	if lp.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
	lp.Observe(Block{Addr: 0x40, Next: 0x80})
	if lp.Lookups() != 1 {
		t.Errorf("lookups = %d after one transition, want 1", lp.Lookups())
	}
	if MustNewLinePredictor(64).Lookups() != 0 {
		t.Error("fresh line predictor has lookups")
	}
}

func BenchmarkTrackerProcess(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	g := workload.MustNew(prof, 0)
	tr := NewTracker(ModeEV8())
	r := make([]trace.Branch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextBatch(r)
		tr.Process(r[0])
	}
}

func TestLenientModeAbsorbsDiscontinuities(t *testing.T) {
	ts := Threads{Mode: ModeLghist(), Lenient: true}
	tr, _ := ts.Tracker(0)
	// Thread A runs at 0x1000, then the stream jumps backwards to
	// 0x200 (a different thread's flow) — strict mode would panic.
	tr.Process(rec(0x1000, 0x1004, false, 0, trace.Cond))
	tr.Process(rec(0x200, 0x204, false, 0, trace.Cond))
	if tr.Resyncs() != 1 {
		t.Errorf("resyncs = %d, want 1", tr.Resyncs())
	}
	// Forward discontinuities resync too (no gap-block storm).
	blocksBefore := tr.Blocks()
	tr.Process(rec(0x90000, 0x90004, false, 0, trace.Cond))
	if tr.Resyncs() != 2 {
		t.Errorf("resyncs = %d, want 2", tr.Resyncs())
	}
	if tr.Blocks() > blocksBefore+2 {
		t.Errorf("forward discontinuity formed %d phantom blocks", tr.Blocks()-blocksBefore)
	}
	if NewTracker(ModeLghist()).Resyncs() != 0 {
		t.Error("fresh tracker has a resync count")
	}
}

func TestBlockCondCount(t *testing.T) {
	tr := NewTracker(ModeLghist())
	var blocks []Block
	tr.OnBlock(func(b Block) { blocks = append(blocks, b) })
	// Three conditionals then a taken one: block carries CondCount 4.
	tr.Process(rec(0x1000, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x1004, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x1008, 0x3000, false, 0, trace.Cond))
	tr.Process(rec(0x100c, 0x3000, true, 0, trace.Cond))
	if len(blocks) != 1 || blocks[0].CondCount != 4 {
		t.Fatalf("blocks = %+v", blocks)
	}
}
