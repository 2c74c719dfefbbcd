package ev8

import (
	"math/rand"
	"testing"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/core"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/predtest"
)

// TestStagedIndexMatchesTrees pins the hand-flattened staged index pass
// (stageIndexQuad) against the generic xor-tree evaluator for random
// information vectors, every bank, and both wordline variants. This is
// the equivalence the whole EV8 batch path rests on.
func TestStagedIndexMatchesTrees(t *testing.T) {
	cfg := core.ConfigEV8Size()
	var histMask [core.NumBanks]uint64
	for b := core.BIM; b < core.NumBanks; b++ {
		histMask[b] = bitutil.Mask(cfg.Banks[b].HistLen)
	}
	rng := rand.New(rand.NewSource(0xE58))
	for _, addrWL := range []bool{false, true} {
		for trial := 0; trial < 20000; trial++ {
			info := history.Info{
				PC:   rng.Uint64(),
				Hist: rng.Uint64(),
				Path: [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()},
			}
			bank := uint8(rng.Intn(int(core.NumBanks)))

			var want [core.NumBanks]uint64
			for b := core.BIM; b < core.NumBanks; b++ {
				hist := info.Hist & histMask[b]
				var wl uint64
				if addrWL {
					wl = wordlineAddrOnly(info.PC)
				} else {
					wl = wordlineEV8(info.PC, hist)
				}
				want[b] = tables[b].evalIndex(info.PC, hist, info.Path[0], info.Path[1], bank, wl)
			}

			var got [predictor.MaxSnapshotBanks]uint64
			stageIndexQuad(&info, bank, addrWL, &got)
			if got != want {
				t.Fatalf("addrWL=%v bank=%d info=%+v:\nstaged  %x\ngeneric %x",
					addrWL, bank, info, got, want)
			}
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
