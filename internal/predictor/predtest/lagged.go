package predtest

import (
	"bytes"
	"reflect"
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
)

// BatchFactory builds a fresh batch-capable predictor instance.
type BatchFactory func() predictor.BatchPredictor

// LaggedBatch is the kernel-level commit-delay differential every
// predictor.BatchPredictor family runs: for each lag and chunk size it
// replays the stream through LookupBatch/UpdateBatchLagged over a window
// of pending entries plus the chunk, and compares against the scalar
// delayed interleaving (Lookup(k), then UpdateWith(k−lag)) — per-branch
// finals, the complete snapshots still pending at the end, the
// serialized predictor state and, with collect, the attribution counters.
// Lags larger than a chunk and lag 0 (UpdateBatch's case) are included.
func LaggedBatch(t *testing.T, mk BatchFactory, infos []history.Info, outcomes []bool) {
	t.Helper()
	for _, collect := range []bool{false, true} {
		for _, lag := range []int{0, 1, 7, 64, 300} {
			ref, refFinals, refPending := laggedScalar(mk, collect, infos, outcomes, lag)
			for _, chunk := range []int{13, 64, 256} {
				p := mk()
				if in, ok := p.(stats.Instrumented); ok {
					in.EnableStats(collect)
				}
				pending, finals := laggedBatch(t, p, infos, outcomes, lag, chunk)
				for k, f := range finals {
					if f != refFinals[k] {
						t.Fatalf("collect=%v lag=%d chunk=%d branch %d: batch %v, scalar %v",
							collect, lag, chunk, k, f, refFinals[k])
					}
				}
				if !reflect.DeepEqual(pending, refPending) {
					t.Fatalf("collect=%v lag=%d chunk=%d: pending snapshots diverge:\nbatch  %+v\nscalar %+v",
						collect, lag, chunk, pending, refPending)
				}
				if sp, ok := p.(predictor.Snapshotter); ok {
					if !bytes.Equal(sp.SnapshotState(), ref.(predictor.Snapshotter).SnapshotState()) {
						t.Fatalf("collect=%v lag=%d chunk=%d: predictor states diverge", collect, lag, chunk)
					}
				}
				if in, ok := p.(stats.Instrumented); ok && collect {
					if got, want := in.Stats(), ref.(stats.Instrumented).Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("lag=%d chunk=%d: attribution diverges:\nbatch  %v\nscalar %v", lag, chunk, got, want)
					}
				}
			}
		}
	}
}

// pendingEntry is one branch awaiting its delayed update.
type pendingEntry struct {
	Snap  predictor.Snapshot
	Taken bool
}

// laggedScalar runs the scalar commit-delay interleaving through a FIFO
// and returns the predictor (its pending updates not yet retired), the
// per-branch predictions and the pending entries.
func laggedScalar(mk BatchFactory, collect bool, infos []history.Info, outcomes []bool, lag int) (predictor.BatchPredictor, []bool, []pendingEntry) {
	p := mk()
	if in, ok := p.(stats.Instrumented); ok {
		in.EnableStats(collect)
	}
	finals := make([]bool, len(infos))
	var queue []pendingEntry
	for k := range infos {
		s := p.Lookup(&infos[k])
		finals[k] = s.Final
		queue = append(queue, pendingEntry{s, outcomes[k]})
		if len(queue) > lag {
			p.UpdateWith(queue[0].Snap, queue[0].Taken)
			queue = queue[1:]
		}
	}
	return p, finals, append([]pendingEntry(nil), queue...)
}

// laggedBatch runs the same stream through the lagged kernel in chunks,
// carrying the pending entries from window to window. It also checks the
// packing contract: unused lanes of the last finals word come back zero.
func laggedBatch(t *testing.T, p predictor.BatchPredictor, infos []history.Info, outcomes []bool, lag, chunk int) ([]pendingEntry, []bool) {
	t.Helper()
	var pending []pendingEntry
	out := make([]bool, 0, len(infos))
	for lo := 0; lo < len(infos); lo += chunk {
		hi := min(lo+chunk, len(infos))
		m, np := hi-lo, len(pending)
		win := make([]predictor.Snapshot, np+m)
		wout := make([]bool, 0, np+m)
		for i, e := range pending {
			win[i] = e.Snap
			wout = append(wout, e.Taken)
		}
		wout = append(wout, outcomes[lo:hi]...)
		taken := make([]uint64, predictor.BatchWords(np+m))
		for i, tk := range wout {
			if tk {
				taken[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		finals := make([]uint64, predictor.BatchWords(m))
		for w := range finals {
			finals[w] = ^uint64(0) // garbage the kernel must overwrite/zero
		}
		p.LookupBatch(infos[lo:hi], win[np:])
		p.UpdateBatchLagged(win, np, lag, taken, finals)
		for j := 0; j < m; j++ {
			out = append(out, finals[j>>6]>>(uint(j)&63)&1 == 1)
		}
		if m&63 != 0 && finals[m>>6]>>(uint(m)&63) != 0 {
			t.Fatalf("lag=%d chunk=%d window at %d: unused finals lanes not zeroed", lag, chunk, lo)
		}
		trained := max(0, np+m-lag)
		var next []pendingEntry
		for i := trained; i < np+m; i++ {
			next = append(next, pendingEntry{win[i], wout[i]})
		}
		pending = next
	}
	return pending, out
}
