package frontend

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// threadsWalk walks recs through ts in chunks of chunk records and
// returns the information vectors, the block log entries and each
// branch's mark, concatenated over the chunks.
func threadsWalk(t *testing.T, ts *Threads, recs []trace.Branch, chunk int) ([]history.Info, []LogEntry, []int) {
	t.Helper()
	log := NewBlockLog(chunk)
	buf := make([]history.Info, chunk)
	var infos []history.Info
	var entries []LogEntry
	var marks []int
	for off := 0; off < len(recs); off += chunk {
		c := recs[off:min(off+chunk, len(recs))]
		log.Reset()
		if n, err := ts.Walk(c, buf, &log); err != nil || n != len(c) {
			t.Fatalf("chunk %d at record %d: Walk = %d, %v", chunk, off, n, err)
		}
		for _, m := range log.Marks {
			marks = append(marks, len(entries)+int(m))
		}
		infos = append(infos, buf[:len(log.Marks)]...)
		entries = append(entries, log.Entries...)
	}
	return infos, entries, marks
}

// interleaved collects the named benchmarks' streams interleaved by the
// SMT interleaver at the given quantum, one thread id per benchmark.
func interleaved(t *testing.T, quantum int64, names ...string) []trace.Branch {
	t.Helper()
	srcs := make([]trace.Source, len(names))
	for i, name := range names {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = workload.MustNew(prof, 60_000)
	}
	recs, err := trace.Collect(workload.NewInterleaved(srcs, quantum), 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestThreadsMatchesMapReference walks an interleaved three-thread stream
// through Threads in chunks and through a map of per-thread trackers
// advanced record at a time by the reference (RefProcess): the vectors,
// the blocks and each branch's block count, every tracker's final state
// and the totals must agree.
func TestThreadsMatchesMapReference(t *testing.T) {
	recs := interleaved(t, 700, "perl", "li", "go")
	mode := ModeEV8()
	trackers := map[int]*Tracker{}
	var refInfos []history.Info
	var refBlocks []Block
	var refMarks []int
	for _, b := range recs {
		tr := trackers[b.Thread]
		if tr == nil {
			tr = NewTracker(mode)
			tr.threadTag = b.Thread
			trackers[b.Thread] = tr
		}
		info, ok := tr.RefProcess(b, func(bl Block) { refBlocks = append(refBlocks, bl) })
		if ok {
			refInfos = append(refInfos, info)
			refMarks = append(refMarks, len(refBlocks))
		}
	}
	if len(trackers) != 3 {
		t.Fatalf("%d threads in the interleaving, want 3", len(trackers))
	}

	for _, chunk := range []int{13, 1024} {
		ts := &Threads{Mode: mode}
		infos, entries, marks := threadsWalk(t, ts, recs, chunk)
		if len(infos) != len(refInfos) {
			t.Fatalf("chunk %d: %d branches, reference %d", chunk, len(infos), len(refInfos))
		}
		var blocks []Block
		e := 0
		for k := range infos {
			for ; e < marks[k]; e++ {
				entries[e].EachBlock(func(bl Block) { blocks = append(blocks, bl) })
			}
			if infos[k] != refInfos[k] || len(blocks) != refMarks[k] {
				t.Fatalf("chunk %d, branch %d: info %+v after %d blocks, reference %+v after %d",
					chunk, k, infos[k], len(blocks), refInfos[k], refMarks[k])
			}
		}
		for ; e < len(entries); e++ {
			entries[e].EachBlock(func(bl Block) { blocks = append(blocks, bl) })
		}
		if len(blocks) != len(refBlocks) {
			t.Fatalf("chunk %d: %d blocks, reference %d", chunk, len(blocks), len(refBlocks))
		}
		for i := range refBlocks {
			if blocks[i] != refBlocks[i] {
				t.Fatalf("chunk %d: block %d %+v, reference %+v", chunk, i, blocks[i], refBlocks[i])
			}
		}
		var want [3]int64
		for id, ref := range trackers {
			tr, err := ts.Tracker(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tr.SnapshotState(), ref.SnapshotState()) {
				t.Errorf("chunk %d: thread %d tracker state diverges", chunk, id)
			}
			want[0] += ref.blocks
			want[1] += ref.lgBits
			want[2] += ref.condSeen
		}
		if b, l, c := ts.Totals(); [3]int64{b, l, c} != want {
			t.Errorf("chunk %d: Totals = %d, %d, %d; reference %v", chunk, b, l, c, want)
		}
	}
}

// TestThreadsInterleavingMatchesSolo: in a two-thread stream interleaved
// in short random runs, each thread gets the information vectors and the
// log entries it gets walked alone; the walk of the interleaving is the
// interleaving of the threads' own walks, whatever the chunk size.
func TestThreadsInterleavingMatchesSolo(t *testing.T) {
	var solo [2][]trace.Branch
	for id, name := range []string{"compress", "m88ksim"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if solo[id], err = trace.Collect(&trace.ForceThread{Src: workload.MustNew(prof, 0), Thread: id}, 4000); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	var recs []trace.Branch
	for a, b := solo[0], solo[1]; len(a)+len(b) > 0; {
		for _, src := range []*[]trace.Branch{&a, &b} {
			n := min(len(*src), 1+rng.Intn(20))
			recs = append(recs, (*src)[:n]...)
			*src = (*src)[n:]
		}
	}

	// Each thread walked alone, one record at a time, so every record's
	// log entries are known; the expected walk interleaves them.
	var wantInfos []history.Info
	var wantEntries []LogEntry
	var wantMarks []int
	var alone [2]*Tracker
	for id := range alone {
		alone[id] = NewTracker(ModeEV8())
		alone[id].threadTag = id
	}
	one := NewBlockLog(1)
	info := make([]history.Info, 1)
	for _, b := range recs {
		one.Reset()
		if _, err := alone[b.Thread].Walk([]trace.Branch{b}, info, &one); err != nil {
			t.Fatal(err)
		}
		wantEntries = append(wantEntries, one.Entries...)
		if len(one.Marks) == 1 {
			wantInfos = append(wantInfos, info[0])
			wantMarks = append(wantMarks, len(wantEntries))
		}
	}

	for _, chunk := range []int{1, 13, 1024} {
		ts := &Threads{Mode: ModeEV8()}
		infos, entries, marks := threadsWalk(t, ts, recs, chunk)
		if len(infos) != len(wantInfos) || len(entries) != len(wantEntries) {
			t.Fatalf("chunk %d: %d branches, %d entries; alone %d, %d",
				chunk, len(infos), len(entries), len(wantInfos), len(wantEntries))
		}
		for k := range wantInfos {
			if infos[k] != wantInfos[k] || marks[k] != wantMarks[k] {
				t.Fatalf("chunk %d, branch %d: info %+v at mark %d, alone %+v at %d",
					chunk, k, infos[k], marks[k], wantInfos[k], wantMarks[k])
			}
		}
		for i := range wantEntries {
			if entries[i] != wantEntries[i] {
				t.Fatalf("chunk %d: entry %d %+v, alone %+v", chunk, i, entries[i], wantEntries[i])
			}
		}
	}
}

// TestThreadsSparseIDs pins the dense/sparse split: a thread id past
// maxDenseThread lands in the sparse map and walks identically to the
// same stream under a small id, Each visits dense ids then sparse ids in
// ascending order, and a negative id is an error.
func TestThreadsSparseIDs(t *testing.T) {
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	walk := func(id int) ([]history.Info, []LogEntry, []int) {
		recs, err := trace.Collect(&trace.ForceThread{Src: workload.MustNew(prof, 50_000), Thread: id}, 0)
		if err != nil {
			t.Fatal(err)
		}
		infos, entries, marks := threadsWalk(t, &Threads{Mode: ModeEV8()}, recs, 1024)
		for k := range infos {
			if infos[k].Thread != id {
				t.Fatalf("thread %d: branch %d tagged thread %d", id, k, infos[k].Thread)
			}
			infos[k].Thread = 0
		}
		return infos, entries, marks
	}
	di, de, dm := walk(1)
	si, se, sm := walk(maxDenseThread + 99_000)
	if len(di) == 0 || len(di) != len(si) || len(de) != len(se) {
		t.Fatalf("sparse id walked %d branches, %d entries; dense %d, %d", len(si), len(se), len(di), len(de))
	}
	for k := range di {
		if di[k] != si[k] || dm[k] != sm[k] {
			t.Fatalf("branch %d: sparse %+v at %d, dense %+v at %d", k, si[k], sm[k], di[k], dm[k])
		}
	}
	for i := range de {
		if de[i] != se[i] {
			t.Fatalf("entry %d: sparse %+v, dense %+v", i, se[i], de[i])
		}
	}

	var ts Threads
	for _, id := range []int{maxDenseThread + 7, 5, maxDenseThread + 1, 2} {
		tr, err := ts.Tracker(id)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ts.Tracker(id); again != tr {
			t.Errorf("thread %d: Tracker built a second tracker", id)
		}
	}
	if len(ts.dense) != 6 {
		t.Errorf("dense table holds %d slots, want 6 (sparse ids must not grow it)", len(ts.dense))
	}
	if ts.dense[3] != nil {
		t.Error("Tracker filled a slot it was not asked for")
	}
	var order []int
	ts.Each(func(id int, _ *Tracker) { order = append(order, id) })
	if want := []int{2, 5, maxDenseThread + 1, maxDenseThread + 7}; !slices.Equal(order, want) {
		t.Errorf("Each order %v, want %v", order, want)
	}

	recs := []trace.Branch{{PC: 4096, Target: 8192, Taken: true, Gap: 3, Thread: -1}}
	log := NewBlockLog(1)
	if n, err := ts.Walk(recs, make([]history.Info, 1), &log); n != 0 || err == nil ||
		!strings.Contains(err.Error(), "negative thread id") {
		t.Errorf("Walk of a negative thread id = %d, %v", n, err)
	}
}
