package frontend

import (
	"fmt"
	"sort"

	"ev8pred/internal/history"
	"ev8pred/internal/trace"
)

// maxDenseThread bounds the dense thread-id → tracker table. SMT thread
// ids are tiny (the EV8 has four hardware threads); larger ones, which
// only a trace file can hold, go to a sparse map instead of a giant table.
const maxDenseThread = 4096

// Threads is the front end of a stream that may interleave SMT threads
// (§3): each thread id gets its own Tracker, so its own history and path
// state, built on first sight under Mode and Lenient and tagging the
// vectors it emits with the id.
type Threads struct {
	Mode Mode
	// Lenient makes each tracker resynchronize at a record that breaks
	// its flow (completing the in-progress block and restarting the flow;
	// Tracker.Resyncs counts them) instead of failing with ErrFlow. This
	// models one history context shared by interleaved threads, §3's
	// "shared history" SMT configuration.
	Lenient bool

	dense  []*Tracker
	sparse map[int]*Tracker
}

// Walk is Tracker.Walk, with its room rule for the whole of recs, over
// records of any threads: each run of one thread's records costs one
// table lookup, then Tracker.Walk on that thread's tracker. Its vectors,
// marks and blocks land in record order.
// It stops with an error at the first record that breaks its thread's
// flow (ErrFlow) or has a negative thread id, and returns its index.
func (t *Threads) Walk(recs []trace.Branch, infos []history.Info, log *BlockLog) (int, error) {
	checkRoom(len(recs), infos, log)
	for i := 0; i < len(recs); {
		j, id := i+1, recs[i].Thread
		for j < len(recs) && recs[j].Thread == id {
			j++
		}
		tr, err := t.Tracker(id)
		if err != nil {
			return i, err
		}
		if k, err := tr.Walk(recs[i:j], infos, log); err != nil {
			return i + k, err
		}
		i = j
	}
	return len(recs), nil
}

// Tracker returns the tracker for thread id, building it on first sight.
// A negative id cannot come from a valid trace (the trace writer rejects
// it) and is an error instead of growing a table backwards.
func (t *Threads) Tracker(id int) (*Tracker, error) {
	if uint(id) < uint(len(t.dense)) && t.dense[id] != nil {
		return t.dense[id], nil
	}
	if tr := t.sparse[id]; tr != nil {
		return tr, nil
	}
	if id < 0 {
		return nil, fmt.Errorf("frontend: negative thread id %d in branch record", id)
	}
	tr := NewTracker(t.Mode)
	tr.threadTag, tr.lenient = id, t.Lenient
	if id >= maxDenseThread {
		if t.sparse == nil {
			t.sparse = map[int]*Tracker{}
		}
		t.sparse[id] = tr
		return tr, nil
	}
	for len(t.dense) <= id {
		t.dense = append(t.dense, nil)
	}
	t.dense[id] = tr
	return tr, nil
}

// Each calls fn for every tracker in a fixed order: dense ids ascending,
// then sparse ids ascending.
func (t *Threads) Each(fn func(id int, tr *Tracker)) {
	for id, tr := range t.dense {
		if tr != nil {
			fn(id, tr)
		}
	}
	ids := make([]int, 0, len(t.sparse))
	for id := range t.sparse {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fn(id, t.sparse[id])
	}
}

// Totals sums the fetch blocks, lghist bits and conditional branches of
// every thread's tracker.
func (t *Threads) Totals() (blocks, lghistBits, condBranches int64) {
	t.Each(func(_ int, tr *Tracker) {
		blocks += tr.blocks
		lghistBits += tr.lgBits
		condBranches += tr.condSeen
	})
	return blocks, lghistBits, condBranches
}
