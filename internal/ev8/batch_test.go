package ev8

import (
	"math/rand"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/predtest"
)

// treeIndices evaluates the four table indices of the EV8 geometry from
// the xor trees, the specification the linear tables are built from.
func treeIndices(pc, hist, z, y uint64, bank uint8, addrWL bool) [core.NumBanks]uint64 {
	var idx [core.NumBanks]uint64
	for b := core.BIM; b < core.NumBanks; b++ {
		h := hist & histMasks[b]
		wl := wordlineAddrOnly(pc)
		if !addrWL {
			wl = wordlineEV8(pc, h)
		}
		idx[b] = tables[b].evalIndex(pc, h, z, y, bank, wl)
	}
	return idx
}

// TestStagedIndexLinearMatchesTrees pins the byte-sliced linear tables —
// the one index evaluator of both the scalar Lookup and the staged batch
// pass — against the generic xor-tree evaluator, for both wordline
// variants and every bank: first for every single input bit of PC,
// history, Z and Y (so every table entry's basis image is checked, and a
// bit the tables do not cover must not matter to the trees either), then
// for random information vectors.
func TestStagedIndexLinearMatchesTrees(t *testing.T) {
	check := func(addrWL bool, pc, hist, z, y uint64, bank uint8) {
		t.Helper()
		info := history.Info{PC: pc, Hist: hist, Path: [3]uint64{z, y, 0}}
		var got [core.NumBanks]uint64
		IndexOptions{AddressOnlyWordline: addrWL}.linear().index(&info, bank, &got)
		if want := treeIndices(pc, hist, z, y, bank, addrWL); got != want {
			t.Fatalf("addrWL=%v bank=%d pc=%#x hist=%#x z=%#x y=%#x:\nlinear %x\ntrees  %x",
				addrWL, bank, pc, hist, z, y, got, want)
		}
	}
	rng := rand.New(rand.NewSource(0xE58))
	for _, addrWL := range []bool{false, true} {
		for bank := uint8(0); bank < NumPredictorBanks; bank++ {
			check(addrWL, 0, 0, 0, 0, bank)
			for i := 0; i < 64; i++ {
				bit := uint64(1) << i
				check(addrWL, bit, 0, 0, 0, bank)
				check(addrWL, 0, bit, 0, 0, bank)
				check(addrWL, 0, 0, bit, 0, bank)
				check(addrWL, 0, 0, 0, bit, bank)
			}
		}
		for trial := 0; trial < 20000; trial++ {
			check(addrWL, rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), uint8(rng.Intn(NumPredictorBanks)))
		}
	}
}

// TestStagedIndexSlicesRejectUncoveredTrees checks the build-time guard:
// a tree reading a PC, history, Z or Y bit outside the linear tables'
// slices is refused, so a tree edit cannot be dropped from the index
// silently.
func TestStagedIndexSlicesRejectUncoveredTrees(t *testing.T) {
	if err := checkSlices(&tables); err != nil {
		t.Fatalf("shipped trees rejected: %v", err)
	}
	for _, bad := range []xorTree{
		{aMask: bits(18)},
		{aMask: bits(1)},
		{hMask: bits(24)},
		{zMask: bits(7)},
		{yMask: bits(5)},
	} {
		g1 := g1Index
		g1.unshuffle = [3]xorTree{g1.unshuffle[0], g1.unshuffle[1], bad}
		ts := tables
		ts[core.G1] = &g1
		if err := checkSlices(&ts); err == nil {
			t.Errorf("tree %+v outside the slices accepted", bad)
		}
	}
}

// TestLookupBatchMatchesScalarLookup checks the frozen-sequencer batch
// stage against scalar Lookup on the same predictor instance: with no
// blocks observed between the two, the staged indices must equal the
// scalar ones branch for branch (the hotbench replay context).
func TestLookupBatchMatchesScalarLookup(t *testing.T) {
	for _, addrWL := range []bool{false, true} {
		p := MustNew(Config{PartialUpdate: true, Index: IndexOptions{AddressOnlyWordline: addrWL}})
		rng := rand.New(rand.NewSource(42))
		infos := make([]history.Info, 257)
		for i := range infos {
			infos[i] = history.Info{
				PC:      rng.Uint64() &^ 3,
				BlockPC: rng.Uint64() &^ 63,
				Hist:    rng.Uint64(),
				Path:    [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()},
			}
		}
		snaps := make([]predictor.Snapshot, len(infos))
		p.LookupBatch(infos, snaps)
		for i := range infos {
			want := p.Lookup(&infos[i])
			if snaps[i].Idx != want.Idx {
				t.Fatalf("addrWL=%v branch %d: batch Idx %x, scalar %x",
					addrWL, i, snaps[i].Idx, want.Idx)
			}
		}
	}
}

// TestBatchLaggedMatchesScalar runs the shared commit-delay kernel
// differential (predtest.LaggedBatch) for both wordline variants, with the
// sequencer frozen as in staged replay: UpdateBatchLagged is the core
// kernel's, fed the EV8's banked indices.
func TestBatchLaggedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pcs := make([]uint64, 24)
	for i := range pcs {
		pcs[i] = 0x10000 + uint64(rng.Intn(1<<14))*4
	}
	infos := make([]history.Info, 1500)
	outcomes := make([]bool, len(infos))
	var hist uint64
	for i := range infos {
		pc := pcs[rng.Intn(len(pcs))]
		infos[i] = history.Info{PC: pc, BlockPC: pc &^ 31, Hist: hist, Path: [3]uint64{pc ^ 0x40, pc ^ 0x80, pc ^ 0xc0}}
		outcomes[i] = rng.Intn(5) < 3
		hist = hist<<1 | uint64(rng.Intn(2))
	}
	for _, addrWL := range []bool{false, true} {
		cfg := Config{PartialUpdate: true, Index: IndexOptions{AddressOnlyWordline: addrWL}}
		predtest.LaggedBatch(t, func() predictor.BatchPredictor { return MustNew(cfg) }, infos, outcomes)
	}
}
