package egskew

import (
	"bytes"
	"reflect"
	"testing"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/predtest"
	"ev8pred/internal/rng"
	"ev8pred/internal/skew"
)

// batchEvents synthesizes a branch stream over a small PC pool so indices
// recur within a chunk — the aliasing case the in-order resolve handles.
func batchEvents(n int, seed uint64) ([]history.Info, []bool) {
	r := rng.New(seed, 0)
	pcs := make([]uint64, 16)
	for i := range pcs {
		pcs[i] = 0x4000 + uint64(r.Intn(1<<12))*4
	}
	infos := make([]history.Info, n)
	outcomes := make([]bool, n)
	var hist uint64
	for i := 0; i < n; i++ {
		pc := pcs[r.Intn(len(pcs))]
		taken := r.Bool(0.55)
		infos[i] = history.Info{PC: pc, BlockPC: pc &^ 31, Hist: hist}
		outcomes[i] = taken
		hist <<= 1
		if taken {
			hist |= 1
		}
	}
	return infos, outcomes
}

func TestBatchMatchesScalar(t *testing.T) {
	const n = 2111
	infos, outcomes := batchEvents(n, 13)
	for _, partial := range []bool{true, false} {
		for _, collect := range []bool{false, true} {
			ps := MustNew(4096, 12, partial)
			ps.EnableStats(collect)
			want := make([]bool, n)
			for i := range infos {
				s := ps.Lookup(&infos[i])
				want[i] = s.Final
				ps.UpdateWith(s, outcomes[i])
			}
			for _, chunk := range []int{512, 64, 13} {
				pb := MustNew(4096, 12, partial)
				pb.EnableStats(collect)
				snaps := make([]predictor.Snapshot, chunk)
				taken := make([]uint64, predictor.BatchWords(chunk))
				finals := make([]uint64, predictor.BatchWords(chunk))
				for lo := 0; lo < n; lo += chunk {
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					m := hi - lo
					for w := range finals {
						finals[w] = ^uint64(0)
					}
					for j := 0; j < m; j++ {
						if j&63 == 0 {
							taken[j>>6] = 0
						}
						if outcomes[lo+j] {
							taken[j>>6] |= 1 << (uint(j) & 63)
						}
					}
					pb.LookupBatch(infos[lo:hi], snaps[:m])
					pb.UpdateBatch(snaps[:m], taken[:predictor.BatchWords(m)], finals)
					for j := 0; j < m; j++ {
						if got := finals[j>>6]>>(uint(j)&63)&1 == 1; got != want[lo+j] {
							t.Fatalf("partial=%v collect=%v chunk=%d branch %d: batch %v, scalar %v",
								partial, collect, chunk, lo+j, got, want[lo+j])
						}
					}
					if m&63 != 0 {
						if extra := finals[m>>6] >> (uint(m) & 63); extra != 0 {
							t.Fatalf("chunk=%d: unused finals lanes not zeroed: %#x", chunk, extra)
						}
					}
				}
				if !bytes.Equal(ps.SnapshotState(), pb.SnapshotState()) {
					t.Errorf("partial=%v collect=%v chunk=%d: final states diverge", partial, collect, chunk)
				}
				if collect && !reflect.DeepEqual(ps.Stats(), pb.Stats()) {
					t.Errorf("partial=%v chunk=%d: attribution counters diverge:\nscalar %v\nbatch  %v",
						partial, chunk, ps.Stats(), pb.Stats())
				}
			}
		}
	}
}

// TestLookupBatchMatchesLookupIdx pins the index-only contract.
func TestLookupBatchMatchesLookupIdx(t *testing.T) {
	p := MustNew(8192, 13, true)
	q := MustNew(8192, 13, true)
	infos, outcomes := batchEvents(400, 17)
	snaps := make([]predictor.Snapshot, len(infos))
	p.LookupBatch(infos, snaps)
	for i := range infos {
		want := q.Lookup(&infos[i])
		if snaps[i].Idx != want.Idx {
			t.Fatalf("branch %d: batch indices %v, scalar %v", i, snaps[i].Idx, want.Idx)
		}
		if snaps[i].Preds != 0 || snaps[i].Final || snaps[i].Aux {
			t.Fatalf("branch %d: LookupBatch touched non-Idx fields: %+v", i, snaps[i])
		}
		q.UpdateWith(want, outcomes[i])
	}
}

// TestBatchLaggedMatchesScalar runs the shared commit-delay kernel
// differential (predtest.LaggedBatch) under both update policies.
func TestBatchLaggedMatchesScalar(t *testing.T) {
	infos, outcomes := batchEvents(1500, 19)
	for _, partial := range []bool{true, false} {
		predtest.LaggedBatch(t, func() predictor.BatchPredictor { return MustNew(1<<12, 12, partial) }, infos, outcomes)
	}
}

// TestIndexEvaluatorMatchesReference checks the family's one index
// evaluator, through Lookup and LookupBatch, against the formula written
// out from its parts with the skewing functions evaluated by their
// primitive H/Hinv steps (skew.Func.Index).
func TestIndexEvaluatorMatchesReference(t *testing.T) {
	r := rng.New(43, 0)
	infos := make([]history.Info, 300)
	for i := range infos {
		infos[i] = history.Info{PC: r.Uint64(), Hist: r.Uint64()}
	}
	snaps := make([]predictor.Snapshot, len(infos))
	for _, entries := range []int{4, 1024, 8192, 64 * 1024} {
		for _, histLen := range []int{0, 1, 13, 27, 50, 64} {
			bits := bitutil.Log2(uint64(entries))
			fam := skew.MustFamily(bits, 2)
			e := MustNew(entries, histLen, true)
			e.LookupBatch(infos, snaps)
			for i := range infos {
				info := &infos[i]
				ibim := predictor.PCBits(info.PC, bits)
				v := ibim | predictor.HistMask(info.Hist, histLen)<<uint(bits)
				want := [predictor.MaxSnapshotBanks]uint64{ibim, fam[0].Index(v, bits+histLen), fam[1].Index(v, bits+histLen)}
				if got := e.Lookup(info).Idx; got != want {
					t.Fatalf("%s: Lookup Idx %v, want %v", e.Name(), got, want)
				}
				if got := snaps[i].Idx; got != want {
					t.Fatalf("%s: LookupBatch Idx %v, want %v", e.Name(), got, want)
				}
			}
		}
	}
}
