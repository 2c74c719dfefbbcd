package frontend_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// walkStream is one record stream of the walk differential; a lenient
// stream interleaves several threads' flows through one tracker (the §3
// shared-history SMT configuration).
type walkStream struct {
	name    string
	recs    []trace.Branch
	lenient bool
}

// hugeGap is a gap spanning far more fetch blocks than any chunk's block
// log holds entries.
const hugeGap = 1 << 20

func walkStreams(t *testing.T) []walkStream {
	t.Helper()
	collect := func(name string, n int) []trace.Branch {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Collect(workload.MustNew(prof, 0), n)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	var streams []walkStream
	for _, name := range []string{"gcc", "li", "go"} {
		streams = append(streams, walkStream{name: name, recs: collect(name, 6000)})
	}

	// Two threads' flows interleaved in random runs through one tracker.
	a, b := collect("compress", 3000), collect("m88ksim", 3000)
	rng := rand.New(rand.NewSource(11))
	var smt []trace.Branch
	for len(a)+len(b) > 0 {
		for _, src := range []*[]trace.Branch{&a, &b} {
			n := min(len(*src), 1+rng.Intn(20))
			smt = append(smt, (*src)[:n]...)
			*src = (*src)[n:]
		}
	}
	streams = append(streams, walkStream{name: "smt-lenient", recs: smt, lenient: true})

	// Hand-made flows: a gap longer than the log, gaps that cross
	// boundaries from a block holding conditional branches or not, from
	// unaligned jump targets, and not-taken transfers ending on a
	// boundary.
	var crafted []trace.Branch
	pc := uint64(0x10_0004)
	add := func(gap int, kind trace.Kind, taken bool, target uint64) {
		b := trace.Branch{PC: pc + uint64(gap)*trace.InstrBytes, Gap: gap, Kind: kind, Taken: taken, Target: target}
		crafted = append(crafted, b)
		pc = b.NextPC()
	}
	for i := 0; i < 300; i++ {
		gap := rng.Intn(40)
		if i == 150 {
			gap = hugeGap
		}
		kind := trace.Cond
		if rng.Intn(5) == 0 {
			kind = trace.Jump
		}
		taken := kind != trace.Cond || rng.Intn(2) == 0
		add(gap, kind, taken, 0x10_0000+uint64(rng.Intn(1<<12))*trace.InstrBytes)
	}
	return append(streams, walkStream{name: "crafted", recs: crafted})
}

// walkModes are every information-vector mode, plus delays shorter and
// longer than the three blocks the EV8 uses.
var walkModes = []frontend.Mode{
	frontend.ModeGhist(),
	frontend.ModeLghistNoPath(),
	frontend.ModeLghist(),
	frontend.ModeOldLghist(),
	{Compressed: true, DelayBlocks: 1},
	{Compressed: true, PathBit: true, DelayBlocks: 7},
}

// TestChunkedWalkMatchesReference is the walk differential: Walk over
// chunks of 1, 13 and 1024 records must hand out the information vectors
// the record-at-a-time reference (RefProcess) does, log exactly its
// blocks with each branch's mark at the reference's block count, leave
// the tracker in the same serialized state after every chunk, and — fed
// to the EV8 — sequence the same banks into the same predictor state as
// the reference's block-by-block ObserveBlock with StageBank at each
// branch.
func TestChunkedWalkMatchesReference(t *testing.T) {
	for _, s := range walkStreams(t) {
		for _, mode := range walkModes {
			for _, chunk := range []int{1, 13, 1024} {
				checkWalk(t, s, mode, chunk)
			}
		}
	}
}

func checkWalk(t *testing.T, s walkStream, mode frontend.Mode, chunk int) {
	t.Helper()
	// Two tables, so both trackers are thread 0's.
	refs := frontend.Threads{Mode: mode, Lenient: s.lenient}
	gots := frontend.Threads{Mode: mode, Lenient: s.lenient}
	ref, _ := refs.Tracker(0)
	got, _ := gots.Tracker(0)
	refEV8, gotEV8 := ev8.MustNew(ev8.DefaultConfig()), ev8.MustNew(ev8.DefaultConfig())
	log := frontend.NewBlockLog(chunk)
	infos := make([]history.Info, chunk)
	banks := make([]uint8, chunk)
	for off := 0; off < len(s.recs); off += chunk {
		recs := s.recs[off:min(off+chunk, len(s.recs))]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s, mode %v, chunk %d at record %d: "+format,
				append([]any{s.name, mode, chunk, off}, args...)...)
		}

		var refBlocks []frontend.Block
		var refInfos []history.Info
		var refBanks []uint8
		var refMarks []int
		for _, b := range recs {
			info, ok := ref.RefProcess(b, func(bl frontend.Block) {
				refBlocks = append(refBlocks, bl)
				refEV8.ObserveBlock(bl)
			})
			if ok {
				refInfos = append(refInfos, info)
				refBanks = append(refBanks, refEV8.StageBank(info.BlockPC))
				refMarks = append(refMarks, len(refBlocks))
			}
		}

		log.Reset()
		if n, err := got.Walk(recs, infos, &log); err != nil || n != len(recs) {
			fail("Walk = %d, %v", n, err)
		}
		m := len(log.Marks)
		gotEV8.ObserveBlockLog(&log, infos[:m], banks[:m])
		var gotBlocks []frontend.Block
		var gotMarks []int
		e := 0
		for _, mark := range log.Marks {
			for ; e < int(mark); e++ {
				log.Entries[e].EachBlock(func(bl frontend.Block) { gotBlocks = append(gotBlocks, bl) })
			}
			gotMarks = append(gotMarks, len(gotBlocks))
		}
		for ; e < len(log.Entries); e++ {
			log.Entries[e].EachBlock(func(bl frontend.Block) { gotBlocks = append(gotBlocks, bl) })
		}

		if m != len(refInfos) {
			fail("%d branches, reference %d", m, len(refInfos))
		}
		for k := range refInfos {
			if infos[k] != refInfos[k] {
				fail("branch %d info %+v, reference %+v", k, infos[k], refInfos[k])
			}
			if gotMarks[k] != refMarks[k] {
				fail("branch %d marked after %d blocks, reference %d", k, gotMarks[k], refMarks[k])
			}
			if banks[k] != refBanks[k] {
				fail("branch %d bank %d, reference %d", k, banks[k], refBanks[k])
			}
		}
		if len(gotBlocks) != len(refBlocks) {
			fail("%d blocks, reference %d", len(gotBlocks), len(refBlocks))
		}
		for i := range refBlocks {
			if gotBlocks[i] != refBlocks[i] {
				fail("block %d %+v, reference %+v", i, gotBlocks[i], refBlocks[i])
			}
		}
		if !bytes.Equal(got.SnapshotState(), ref.SnapshotState()) {
			fail("tracker state diverges")
		}
	}
	// The EV8 snapshot holds the counter tables too; one comparison at
	// the end covers the sequencer and the §6 counters.
	if !bytes.Equal(gotEV8.SnapshotState(), refEV8.SnapshotState()) {
		t.Fatalf("%s, mode %v, chunk %d: EV8 sequencer state diverges", s.name, mode, chunk)
	}
}

// TestWalkHugeGapAllocatesNothing walks records whose gap spans far more
// blocks than the one-record log holds: each is one run entry, so the
// walk neither grows the log nor allocates.
func TestWalkHugeGapAllocatesNothing(t *testing.T) {
	tr := frontend.NewTracker(frontend.ModeEV8())
	log := frontend.NewBlockLog(1)
	infos := make([]history.Info, 1)
	recs := make([]trace.Branch, 1)
	pc := uint64(0x4000)
	allocs := testing.AllocsPerRun(100, func() {
		recs[0] = trace.Branch{PC: pc + hugeGap*trace.InstrBytes, Gap: hugeGap, Kind: trace.Cond}
		pc = recs[0].NextPC()
		log.Reset()
		if _, err := tr.Walk(recs, infos, &log); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Walk allocated %.1f times per huge-gap record", allocs)
	}
	if len(log.Entries) > frontend.RunsPerRecord || cap(log.Entries) != frontend.RunsPerRecord {
		t.Errorf("log grew to %d entries (cap %d)", len(log.Entries), cap(log.Entries))
	}
	if want := int64(101 * hugeGap / 8); tr.Blocks() < want {
		t.Errorf("%d blocks after 101 huge gaps, want at least %d", tr.Blocks(), want)
	}
}

// TestWalkFlowBreak checks that Walk stops at the first record that does
// not continue the flow, returning its index and ErrFlow, while a lenient
// tracker resynchronizes.
func TestWalkFlowBreak(t *testing.T) {
	recs := []trace.Branch{
		{PC: 0x1000, Target: 0x2000, Taken: true, Kind: trace.Cond},
		{PC: 0x2008, Gap: 2, Kind: trace.Cond},
		{PC: 0x5000, Kind: trace.Cond},
	}
	log := frontend.NewBlockLog(len(recs))
	infos := make([]history.Info, len(recs))
	ts := frontend.Threads{Mode: frontend.ModeEV8()}
	tr, _ := ts.Tracker(3)
	n, err := tr.Walk(recs, infos, &log)
	if n != 2 || !errors.Is(err, frontend.ErrFlow) {
		t.Fatalf("Walk = %d, %v; want 2, ErrFlow", n, err)
	}
	if len(log.Marks) != 2 {
		t.Errorf("%d branches walked before the break, want 2", len(log.Marks))
	}

	lts := frontend.Threads{Mode: frontend.ModeEV8(), Lenient: true}
	lenient, _ := lts.Tracker(0)
	log.Reset()
	if n, err := lenient.Walk(recs, infos, &log); n != len(recs) || err != nil {
		t.Fatalf("lenient Walk = %d, %v", n, err)
	}
	if lenient.Resyncs() != 1 {
		t.Errorf("resyncs = %d, want 1", lenient.Resyncs())
	}
}

func BenchmarkTrackerWalk(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	g := workload.MustNew(prof, 0)
	tr := frontend.NewTracker(frontend.ModeEV8())
	const chunk = 1024
	recs := make([]trace.Branch, chunk)
	log := frontend.NewBlockLog(chunk)
	infos := make([]history.Info, chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		b.StopTimer()
		n, _ := g.NextBatch(recs[:min(chunk, b.N-i)])
		b.StartTimer()
		log.Reset()
		if _, err := tr.Walk(recs[:n], infos, &log); err != nil {
			b.Fatal(err)
		}
	}
}
