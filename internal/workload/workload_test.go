package workload

import (
	"errors"
	"testing"

	"ev8pred/internal/trace"
)

func TestProfileValidate(t *testing.T) {
	good := Benchmarks()[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("builtin profile invalid: %v", err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.StaticCond = 0
	if bad.Validate() == nil {
		t.Error("zero sites accepted")
	}
	bad = good
	bad.FracCorr = 0.9
	bad.FracLocal = 0.9
	if bad.Validate() == nil {
		t.Error("fractions > 1 accepted")
	}
	bad = good
	bad.BiasStrength = 0.4
	if bad.Validate() == nil {
		t.Error("bias <= 0.5 accepted")
	}
	bad = good
	bad.CorrMinDist = 10
	bad.CorrMaxDist = 5
	if bad.Validate() == nil {
		t.Error("inverted correlation range accepted")
	}
}

func TestAllBenchmarksValid(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(bs))
	}
	for _, p := range bs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil || p.Name != "gcc" {
		t.Fatalf("ByName(gcc) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	prof, _ := ByName("li")
	a := MustNew(prof, 50000)
	b := MustNew(prof, 50000)
	for {
		ra, oka := next(a)
		rb, okb := next(b)
		if oka != okb {
			t.Fatal("streams have different lengths")
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("streams diverge: %+v vs %+v", ra, rb)
		}
	}
}

func TestGeneratorBudget(t *testing.T) {
	prof, _ := ByName("m88ksim")
	g := MustNew(prof, 10000)
	s := measure(t, g)
	if s.Instructions < 10000 {
		t.Errorf("stopped early: %d instructions", s.Instructions)
	}
	if s.Instructions > 11000 {
		t.Errorf("overshot budget: %d instructions", s.Instructions)
	}
}

func TestFlowConsistency(t *testing.T) {
	// The front-end invariant: every record's PC equals the previous
	// record's NextPC plus its gap. This is what fetch-block formation
	// rests on.
	for _, name := range []string{"compress", "gcc", "ijpeg"} {
		prof, _ := ByName(name)
		g := MustNew(prof, 200000)
		first := true
		var flow uint64
		n := 0
		for {
			b, ok := next(g)
			if !ok {
				break
			}
			if !first {
				want := flow + uint64(b.Gap)*trace.InstrBytes
				if b.PC != want {
					t.Fatalf("%s record %d: PC %#x, want %#x", name, n, b.PC, want)
				}
			}
			first = false
			flow = b.NextPC()
			n++
		}
	}
}

func TestStaticBranchCountsMatchTable2(t *testing.T) {
	// Static conditional site counts must match Table 2 exactly (the
	// builder guarantees it structurally).
	want := map[string]int{
		"compress": 46, "gcc": 12086, "go": 3710, "ijpeg": 904,
		"li": 251, "m88ksim": 409, "perl": 273, "vortex": 2239,
	}
	for name, n := range want {
		prof, _ := ByName(name)
		g := MustNew(prof, 1)
		if g.StaticSites() != n {
			t.Errorf("%s: %d static sites, want %d", name, g.StaticSites(), n)
		}
	}
}

func TestObservedStaticFootprint(t *testing.T) {
	// Long runs should touch most of the static sites for small
	// benchmarks (hot+cold mix is allowed to leave some cold).
	prof, _ := ByName("li")
	g := MustNew(prof, 2_000_000)
	s := measure(t, g)
	if s.StaticBranches < 150 {
		t.Errorf("observed only %d static branches of 251", s.StaticBranches)
	}
	if s.StaticBranches > 251 {
		t.Errorf("observed %d static branches, more than the program has", s.StaticBranches)
	}
}

func TestDynamicDensityReasonable(t *testing.T) {
	// Table 2 implies ~90-165 conditional branches per KI. Check each
	// profile lands in a plausible band.
	for _, prof := range Benchmarks() {
		g := MustNew(prof, 500_000)
		s := measure(t, g)
		brKI := s.BranchesPerKI()
		if brKI < 50 || brKI > 250 {
			t.Errorf("%s: %.1f cond branches/KI out of plausible range", prof.Name, brKI)
		}
	}
}

func TestTakenRateBand(t *testing.T) {
	for _, prof := range Benchmarks() {
		g := MustNew(prof, 300_000)
		s := measure(t, g)
		if r := s.TakenRate(); r < 0.2 || r > 0.8 {
			t.Errorf("%s: taken rate %.2f out of band", prof.Name, r)
		}
	}
}

func TestUnconditionalRecordsPresent(t *testing.T) {
	prof, _ := ByName("perl")
	g := MustNew(prof, 100_000)
	kinds := map[trace.Kind]int{}
	for {
		b, ok := next(g)
		if !ok {
			break
		}
		kinds[b.Kind]++
		if b.Kind != trace.Cond && !b.Taken {
			t.Fatal("unconditional record marked not-taken")
		}
	}
	for _, k := range []trace.Kind{trace.Cond, trace.Call, trace.Return, trace.Jump} {
		if kinds[k] == 0 {
			t.Errorf("no %v records in stream", k)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	prof, _ := ByName("go")
	a := MustNew(prof, 50_000)
	prof2 := prof
	prof2.Seed++
	b := MustNew(prof2, 50_000)
	ra := collect(t, a, 1000)
	rb := collect(t, b, 1000)
	same := 0
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		if ra[i] == rb[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical streams")
	}
}

func TestInterleavedTagsThreads(t *testing.T) {
	p1, _ := ByName("li")
	p2, _ := ByName("perl")
	iv := NewInterleaved([]trace.Source{
		MustNew(p1, 50_000), MustNew(p2, 50_000),
	}, 1000)
	seen := map[int]int{}
	for {
		b, ok := next(iv)
		if !ok {
			break
		}
		seen[b.Thread]++
	}
	if len(seen) != 2 || seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("thread mix: %v", seen)
	}
}

func TestInterleavedDrainsAll(t *testing.T) {
	p, _ := ByName("compress")
	g1 := MustNew(p, 30_000)
	g2 := MustNew(p, 60_000)
	want := int64(0)
	for _, g := range []*Generator{MustNew(p, 30_000), MustNew(p, 60_000)} {
		s := measure(t, g)
		want += s.DynamicBranches + s.Transfers
	}
	iv := NewInterleaved([]trace.Source{g1, g2}, 500)
	got := int64(0)
	for {
		if _, ok := next(iv); !ok {
			break
		}
		got++
	}
	if got != want {
		t.Errorf("interleaved %d records, want %d", got, want)
	}
}

// TestInterleavedThreadFailureEndsStream: a thread whose source fails
// ends the interleaved stream with that error, sticky, after the records
// read before it; the other threads are not drained past that point.
func TestInterleavedThreadFailureEndsStream(t *testing.T) {
	p, _ := ByName("li")
	const fail = 250
	bad := &failAfter{src: MustNew(p, 0), n: fail, err: errors.New("thread 1 failed")}
	other := MustNew(p, 0)
	iv := NewInterleaved([]trace.Source{other, bad}, 100)
	got, err := trace.Collect(iv, 0)
	if err != bad.err {
		t.Fatalf("interleaved stream ended with %v, want %v", err, bad.err)
	}
	perThread := map[int]int{}
	for _, b := range got {
		perThread[b.Thread]++
	}
	if perThread[1] != fail {
		t.Errorf("thread 1 delivered %d records before failing, want %d", perThread[1], fail)
	}
	if n, err2 := iv.NextBatch(make([]trace.Branch, 8)); n != 0 || err2 != err {
		t.Errorf("NextBatch after failure = (%d, %v), want (0, %v)", n, err2, err)
	}
	// Thread 0 was read one record at a time, never ahead of its turn.
	rest, _ := trace.Collect(other, 1)
	ref, _ := trace.Collect(MustNew(p, 0), perThread[0]+1)
	if len(rest) != 1 || rest[0] != ref[perThread[0]] {
		t.Error("thread 0 was read past the records the stream delivered")
	}
}

// failAfter delivers n records of src, then fails with err.
type failAfter struct {
	src trace.Source
	n   int
	err error
}

func (f *failAfter) NextBatch(dst []trace.Branch) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	k, err := f.src.NextBatch(dst[:min(len(dst), f.n)])
	f.n -= k
	return k, err
}

func TestCorrelatedSitesArePredictableFromGhist(t *testing.T) {
	// Sanity check the substrate actually carries history signal: an
	// oracle that knows each correlated site's taps must beat 95%
	// accuracy on a low-noise profile when fed the true global history.
	prof, _ := ByName("m88ksim")
	g := MustNew(prof, 200_000)
	var ghist uint64
	total, correct := 0, 0
	// Walk the program's sites via the generator's own model tables:
	// instead of reaching into internals, simply check that SOME
	// global-history-based table learns: a big lookup keyed by
	// (PC, last 16 outcomes) must reach high accuracy on this profile.
	type key struct {
		pc uint64
		h  uint16
	}
	seen := map[key]int8{}
	for {
		b, ok := next(g)
		if !ok {
			break
		}
		if b.Kind != trace.Cond {
			continue
		}
		k := key{b.PC, uint16(ghist)}
		if c, found := seen[k]; found {
			total++
			if (c > 0) == b.Taken {
				correct++
			}
		}
		// Saturating 2-bit-ish vote in int8.
		v := seen[k]
		if b.Taken && v < 3 {
			v++
		} else if !b.Taken && v > -3 {
			v--
		}
		seen[k] = v
		ghist = ghist<<1 | map[bool]uint64{true: 1, false: 0}[b.Taken]
	}
	if total == 0 {
		t.Fatal("no predictions made")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.93 {
		t.Errorf("history-oracle accuracy %.3f on m88ksim, want >= 0.93", acc)
	}
}

// BenchmarkGenerator reads one record per NextBatch call, the way
// Interleaved reads each thread.
func BenchmarkGenerator(b *testing.B) {
	prof, _ := ByName("gcc")
	g := MustNew(prof, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := next(g); !ok {
			b.Fatal("unbounded generator ended")
		}
	}
}

// BenchmarkGeneratorNextBatch is BenchmarkGenerator through NextBatch in
// 1024-record chunks, the engine's chunk size; ns/op is per record.
func BenchmarkGeneratorNextBatch(b *testing.B) {
	prof, _ := ByName("gcc")
	g := MustNew(prof, 0)
	buf := make([]trace.Branch, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		if _, err := g.NextBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSwitchDispatchStructure(t *testing.T) {
	// Indirect dispatches (switches) must appear in switch-enabled
	// profiles, always as Jump records from a recurring PC with varying
	// targets, and flow consistency must hold through the case bodies
	// (checked by TestFlowConsistency's invariant, re-verified here for
	// a switch-heavy profile).
	prof, _ := ByName("perl") // SwitchFrac 0.12
	g := MustNew(prof, 300_000)
	targetsByPC := map[uint64]map[uint64]bool{}
	var flow uint64
	first := true
	for {
		b, ok := next(g)
		if !ok {
			break
		}
		if !first {
			want := flow + uint64(b.Gap)*trace.InstrBytes
			if b.PC != want {
				t.Fatalf("flow broken at %#x", b.PC)
			}
		}
		first = false
		flow = b.NextPC()
		if b.Kind == trace.Jump {
			if targetsByPC[b.PC] == nil {
				targetsByPC[b.PC] = map[uint64]bool{}
			}
			targetsByPC[b.PC][b.Target] = true
		}
	}
	// At least one jump site must be polymorphic (an indirect dispatch).
	poly := 0
	for _, ts := range targetsByPC {
		if len(ts) > 1 {
			poly++
		}
	}
	if poly == 0 {
		t.Error("no polymorphic jump sites despite SwitchFrac > 0")
	}
}

func TestSwitchFracZeroMeansNoPolymorphicJumps(t *testing.T) {
	prof, _ := ByName("li")
	prof.SwitchFrac = 0
	g := MustNew(prof, 200_000)
	targetsByPC := map[uint64]map[uint64]bool{}
	for {
		b, ok := next(g)
		if !ok {
			break
		}
		if b.Kind == trace.Jump {
			if targetsByPC[b.PC] == nil {
				targetsByPC[b.PC] = map[uint64]bool{}
			}
			targetsByPC[b.PC][b.Target] = true
		}
	}
	for pc, ts := range targetsByPC {
		if len(ts) > 1 {
			t.Errorf("polymorphic jump at %#x with SwitchFrac=0", pc)
		}
	}
}

func TestSwitchFracValidation(t *testing.T) {
	prof, _ := ByName("li")
	prof.SwitchFrac = 0.9
	if prof.Validate() == nil {
		t.Error("SwitchFrac 0.9 accepted")
	}
	prof.SwitchFrac = -0.1
	if prof.Validate() == nil {
		t.Error("negative SwitchFrac accepted")
	}
}
