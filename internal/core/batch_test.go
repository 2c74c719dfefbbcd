package core

import (
	"bytes"
	"reflect"
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/predtest"
	"ev8pred/internal/rng"
)

// batchEvents synthesizes a conditional-branch stream over a small PC pool
// — so hot PCs recur many times within one chunk, the intra-chunk aliasing
// case the kernel's in-order resolve pass exists for — with history and
// path state evolving like a front end's.
func batchEvents(n int, seed uint64) ([]history.Info, []bool) {
	r := rng.New(seed, 0)
	pcs := make([]uint64, 24)
	for i := range pcs {
		pcs[i] = 0x4000 + uint64(r.Intn(1<<14))*4
	}
	infos := make([]history.Info, n)
	outcomes := make([]bool, n)
	var hist uint64
	var path [3]uint64
	for i := 0; i < n; i++ {
		pc := pcs[r.Intn(len(pcs))]
		taken := r.Bool(0.6)
		infos[i] = history.Info{PC: pc, BlockPC: pc &^ 31, Hist: hist, Path: path}
		outcomes[i] = taken
		hist <<= 1
		if taken {
			hist |= 1
		}
		path[2], path[1], path[0] = path[1], path[0], pc&^31
	}
	return infos, outcomes
}

// runScalar replays the stream through the fused scalar pair and returns
// the per-branch final predictions.
func runScalar(p *Predictor, infos []history.Info, outcomes []bool) []bool {
	preds := make([]bool, len(infos))
	for i := range infos {
		s := p.Lookup(&infos[i])
		preds[i] = s.Final
		p.UpdateWith(s, outcomes[i])
	}
	return preds
}

// runBatch replays the same stream through LookupBatch/UpdateBatch in
// chunks and unpacks the finals bitset. It also checks the packing
// contract: unused lanes of the last finals word come back zeroed.
func runBatch(t *testing.T, p *Predictor, infos []history.Info, outcomes []bool, chunk int) []bool {
	t.Helper()
	preds := make([]bool, len(infos))
	snaps := make([]predictor.Snapshot, chunk)
	taken := make([]uint64, predictor.BatchWords(chunk))
	finals := make([]uint64, predictor.BatchWords(chunk))
	for lo := 0; lo < len(infos); lo += chunk {
		hi := lo + chunk
		if hi > len(infos) {
			hi = len(infos)
		}
		m := hi - lo
		for w := range finals {
			finals[w] = ^uint64(0) // garbage the kernel must overwrite/zero
		}
		for j := 0; j < m; j++ {
			if j&63 == 0 {
				taken[j>>6] = 0
			}
			if outcomes[lo+j] {
				taken[j>>6] |= 1 << (uint(j) & 63)
			}
		}
		p.LookupBatch(infos[lo:hi], snaps[:m])
		p.UpdateBatch(snaps[:m], taken[:predictor.BatchWords(m)], finals)
		for j := 0; j < m; j++ {
			preds[lo+j] = finals[j>>6]>>(uint(j)&63)&1 == 1
		}
		if m&63 != 0 {
			if extra := finals[m>>6] >> (uint(m) & 63); extra != 0 {
				t.Fatalf("chunk [%d,%d): unused lanes of the last finals word not zeroed: %#x", lo, hi, extra)
			}
		}
	}
	return preds
}

func batchConfigs() []Config {
	total := Config512K()
	total.PartialUpdate = false
	total.Name = "2bcg-512K-total"
	return []Config{Config512K(), total, ConfigEV8Size(), Config512KLghist()}
}

// TestLookupBatchMatchesLookupIdx pins the LookupBatch contract: the
// staged index pass computes exactly the indices Lookup would, and fills
// nothing else.
func TestLookupBatchMatchesLookupIdx(t *testing.T) {
	for _, cfg := range batchConfigs() {
		p := MustNew(cfg)
		q := MustNew(cfg)
		infos, outcomes := batchEvents(500, 7)
		snaps := make([]predictor.Snapshot, len(infos))
		p.LookupBatch(infos, snaps)
		for i := range infos {
			want := q.Lookup(&infos[i])
			if snaps[i].Idx != want.Idx {
				t.Fatalf("%s branch %d: batch Idx %v, scalar %v", cfg.Name, i, snaps[i].Idx, want.Idx)
			}
			if snaps[i].Preds != 0 || snaps[i].Final || snaps[i].Aux {
				t.Fatalf("%s branch %d: LookupBatch touched non-Idx fields: %+v", cfg.Name, i, snaps[i])
			}
			q.UpdateWith(want, outcomes[i])
		}
	}
}

// TestLookupBatchCustomIndexSet exercises the fallback when a
// caller-supplied IndexSet leaves no precompiled parameters to inline.
func TestLookupBatchCustomIndexSet(t *testing.T) {
	cfg := Config512K()
	cfg.Indexes = MustNew(Config512K()).Config().Indexes
	p := MustNew(cfg)
	ref := MustNew(Config512K())
	infos, _ := batchEvents(300, 9)
	snaps := make([]predictor.Snapshot, len(infos))
	p.LookupBatch(infos, snaps)
	for i := range infos {
		if want := ref.Lookup(&infos[i]).Idx; snaps[i].Idx != want {
			t.Fatalf("branch %d: fallback Idx %v, want %v", i, snaps[i].Idx, want)
		}
	}
}

// TestBatchMatchesScalar is the kernel-level differential: same stream,
// one predictor through the scalar fused pair, a twin through the batch
// kernels, comparing every prediction, the final table state, the traffic
// counters, and (when enabled) the attribution counters. Chunk sizes
// include a non-multiple-of-64 tail to exercise the lane masking.
func TestBatchMatchesScalar(t *testing.T) {
	const n = 3333
	for _, cfg := range batchConfigs() {
		for _, collect := range []bool{false, true} {
			ps := MustNew(cfg)
			ps.EnableStats(collect)
			infos, outcomes := batchEvents(n, 11)
			want := runScalar(ps, infos, outcomes)
			var pb *Predictor
			for _, chunk := range []int{1000, 64, 17} {
				pb = MustNew(cfg)
				pb.EnableStats(collect)
				got := runBatch(t, pb, infos, outcomes, chunk)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s collect=%v chunk=%d: branch %d predicted %v, scalar %v",
							cfg.Name, collect, chunk, i, got[i], want[i])
					}
				}
			}
			if !bytes.Equal(ps.SnapshotState(), pb.SnapshotState()) {
				t.Errorf("%s collect=%v: final states diverge", cfg.Name, collect)
			}
			spw, shw, shr := ps.Traffic()
			bpw, bhw, bhr := pb.Traffic()
			if spw != bpw || shw != bhw || shr != bhr {
				t.Errorf("%s collect=%v: traffic %d/%d/%d vs %d/%d/%d",
					cfg.Name, collect, spw, shw, shr, bpw, bhw, bhr)
			}
			if collect && !reflect.DeepEqual(ps.Stats(), pb.Stats()) {
				t.Errorf("%s: attribution counters diverge:\nscalar %v\nbatch  %v",
					cfg.Name, ps.Stats(), pb.Stats())
			}
		}
	}
}

// TestBatchLaggedMatchesScalar is the commit-delay kernel differential:
// UpdateBatchLagged over a window of pending entries plus each chunk must
// reproduce the scalar Lookup(k)/UpdateWith(k−lag) interleaving for every
// configuration, both update policies, lags up to beyond a chunk.
func TestBatchLaggedMatchesScalar(t *testing.T) {
	infos, outcomes := batchEvents(1500, 21)
	for _, cfg := range batchConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			predtest.LaggedBatch(t, func() predictor.BatchPredictor { return MustNew(cfg) }, infos, outcomes)
		})
	}
}
