package counter

import (
	"slices"
	"testing"
	"testing/quick"

	"ev8pred/internal/rng"
)

func TestArrayInitAndFill(t *testing.T) {
	a := NewArray(100, WeakNotTaken)
	for i := uint64(0); i < 100; i++ {
		if a.Get(i) != WeakNotTaken {
			t.Fatalf("entry %d = %d, want weak not-taken", i, a.Get(i))
		}
	}
	a.Fill(StrongTaken)
	for i := uint64(0); i < 100; i++ {
		if a.Get(i) != StrongTaken {
			t.Fatalf("entry %d = %d after Fill", i, a.Get(i))
		}
	}
}

func TestArraySetGet(t *testing.T) {
	a := NewArray(64, 0)
	a.Set(0, 3)
	a.Set(1, 1)
	a.Set(63, 2)
	if a.Get(0) != 3 || a.Get(1) != 1 || a.Get(63) != 2 {
		t.Errorf("got %d %d %d", a.Get(0), a.Get(1), a.Get(63))
	}
	// Neighbors untouched.
	if a.Get(2) != 0 || a.Get(62) != 0 {
		t.Error("Set disturbed neighboring counters")
	}
}

func TestArraySaturation(t *testing.T) {
	a := NewArray(4, WeakNotTaken)
	for i := 0; i < 10; i++ {
		a.Update(0, true)
	}
	if a.Get(0) != StrongTaken {
		t.Errorf("after many taken: %d", a.Get(0))
	}
	for i := 0; i < 10; i++ {
		a.Update(0, false)
	}
	if a.Get(0) != StrongNotTaken {
		t.Errorf("after many not-taken: %d", a.Get(0))
	}
}

func TestArrayTransitionTable(t *testing.T) {
	a := NewArray(1, 0)
	cases := []struct {
		from  uint8
		taken bool
		want  uint8
	}{
		{0, true, 1}, {1, true, 2}, {2, true, 3}, {3, true, 3},
		{3, false, 2}, {2, false, 1}, {1, false, 0}, {0, false, 0},
	}
	for _, c := range cases {
		a.Set(0, c.from)
		a.Update(0, c.taken)
		if got := a.Get(0); got != c.want {
			t.Errorf("update(%d, %v) = %d, want %d", c.from, c.taken, got, c.want)
		}
	}
}

func TestArrayTaken(t *testing.T) {
	a := NewArray(4, 0)
	for st := uint8(0); st < 4; st++ {
		a.Set(0, st)
		if a.Taken(0) != (st >= 2) {
			t.Errorf("state %d: Taken = %v", st, a.Taken(0))
		}
	}
}

func TestArrayIndexWraps(t *testing.T) {
	a := NewArray(16, 0)
	a.Set(16, 3) // wraps to 0 for power-of-two arrays
	if a.Get(0) != 3 {
		t.Error("power-of-two array should mask the index")
	}
}

func TestArrayPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewArray(0) should panic")
		}
	}()
	NewArray(0, 0)
}

func TestArrayAgainstReferenceModel(t *testing.T) {
	// Property: the packed array behaves identically to a []uint8 model
	// under a random operation sequence.
	const n = 257 // non power of two is also supported for Get/Set in range
	a := NewArray(256, WeakNotTaken)
	ref := make([]uint8, 256)
	for i := range ref {
		ref[i] = WeakNotTaken
	}
	r := rng.New(42, 0)
	for step := 0; step < 100000; step++ {
		i := uint64(r.Intn(256))
		switch r.Intn(3) {
		case 0:
			v := uint8(r.Intn(4))
			a.Set(i, v)
			ref[i] = v
		case 1:
			taken := r.Bool(0.5)
			a.Update(i, taken)
			if taken && ref[i] < 3 {
				ref[i]++
			} else if !taken && ref[i] > 0 {
				ref[i]--
			}
		case 2:
			if a.Get(i) != ref[i] {
				t.Fatalf("step %d: entry %d = %d, ref %d", step, i, a.Get(i), ref[i])
			}
		}
	}
	_ = n
	for i := uint64(0); i < 256; i++ {
		if a.Get(i) != ref[i] {
			t.Fatalf("final entry %d = %d, ref %d", i, a.Get(i), ref[i])
		}
	}
}

func TestBitArrayBasics(t *testing.T) {
	b := NewBitArray(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0, true)
	b.Set(64, true)
	b.Set(129, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) {
		t.Error("set bits not readable")
	}
	if b.Get(1) || b.Get(63) || b.Get(65) {
		t.Error("unset bits read as set")
	}
	b.Set(64, false)
	if b.Get(64) {
		t.Error("clear failed")
	}
}

func TestBitArrayPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitArray(0) should panic")
		}
	}()
	NewBitArray(0)
}

func TestNewSplitValidation(t *testing.T) {
	if _, err := NewSplit(0, 1); err == nil {
		t.Error("zero prediction entries accepted")
	}
	if _, err := NewSplit(100, 64); err == nil {
		t.Error("non-power-of-two prediction entries accepted")
	}
	if _, err := NewSplit(64, 100); err == nil {
		t.Error("non-power-of-two hysteresis entries accepted")
	}
	if _, err := NewSplit(64, 128); err == nil {
		t.Error("hysteresis larger than prediction accepted")
	}
	s, err := NewSplit(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.PredEntries() != 128 || s.HystEntries() != 64 || s.SizeBits() != 192 {
		t.Errorf("sizes: %d %d %d", s.PredEntries(), s.HystEntries(), s.SizeBits())
	}
}

func TestMustSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSplit should panic on invalid sizes")
		}
	}()
	MustSplit(64, 128)
}

func TestSplitInitialState(t *testing.T) {
	s := MustSplit(64, 64)
	for i := uint64(0); i < 64; i++ {
		if s.State(i) != WeakNotTaken {
			t.Fatalf("initial state of %d = %d", i, s.State(i))
		}
		if s.Pred(i) {
			t.Fatalf("initial prediction of %d is taken", i)
		}
	}
}

func TestSplitStateRoundTrip(t *testing.T) {
	s := MustSplit(16, 16)
	for st := uint8(0); st < 4; st++ {
		s.SetState(3, st)
		if got := s.State(3); got != st {
			t.Errorf("SetState(%d) read back %d", st, got)
		}
	}
}

func TestSplitUpdateMatchesClassicCounter(t *testing.T) {
	// With equal-size arrays, Split.Update must track Array.Update exactly.
	s := MustSplit(64, 64)
	a := NewArray(64, WeakNotTaken)
	r := rng.New(7, 3)
	for step := 0; step < 200000; step++ {
		i := uint64(r.Intn(64))
		taken := r.Bool(0.6)
		s.Update(i, taken)
		a.Update(i, taken)
		if s.State(i) != a.Get(i) {
			t.Fatalf("step %d idx %d: split %d classic %d", step, i, s.State(i), a.Get(i))
		}
	}
}

func TestSplitStrengthen(t *testing.T) {
	s := MustSplit(8, 8)
	// Weak not-taken strengthened in the not-taken direction -> strong NT.
	s.Strengthen(0, false)
	if s.State(0) != StrongNotTaken {
		t.Errorf("state = %d, want strong not-taken", s.State(0))
	}
	// Strengthening an already strong counter keeps it strong.
	s.Strengthen(0, false)
	if s.State(0) != StrongNotTaken {
		t.Errorf("re-strengthen changed state to %d", s.State(0))
	}
	// Taken side.
	s.SetState(1, WeakTaken)
	s.Strengthen(1, true)
	if s.State(1) != StrongTaken {
		t.Errorf("state = %d, want strong taken", s.State(1))
	}
}

func TestSplitStrengthenContractPanic(t *testing.T) {
	s := MustSplit(8, 8)
	defer func() {
		if recover() == nil {
			t.Error("Strengthen against the prediction bit should panic")
		}
	}()
	s.Strengthen(0, true) // entry predicts not-taken
}

func TestSplitSharedHysteresisAliasing(t *testing.T) {
	// Half-size hysteresis: prediction entries i and i+half share one
	// hysteresis bit. Reproduce the §4.4 scenario: strengthening A makes
	// B's counter strong too (shared bit), and weakening via B resets A's
	// strength.
	s := MustSplit(16, 8)
	a, b := uint64(3), uint64(3+8)
	s.Update(a, true) // A becomes weak taken? no: from weak NT, flips to weak taken
	if s.State(a) != WeakTaken {
		t.Fatalf("A state = %d", s.State(a))
	}
	s.Update(a, true) // strengthens: shared hysteresis set
	if s.State(a) != StrongTaken {
		t.Fatalf("A state = %d, want strong taken", s.State(a))
	}
	// B's prediction bit is still 0, but it sees the shared strong bit:
	if s.State(b) != StrongNotTaken {
		t.Fatalf("B state = %d, want strong not-taken via shared hysteresis", s.State(b))
	}
	// A misprediction on B first weakens the shared bit...
	s.Update(b, true)
	if s.State(b) != WeakNotTaken {
		t.Fatalf("B after one mispredict = %d", s.State(b))
	}
	// ...which also weakened A.
	if s.State(a) != WeakTaken {
		t.Fatalf("A collaterally weakened: state = %d, want weak taken", s.State(a))
	}
	// Two consecutive accesses to B without an intermediate access to A
	// let B reach the correct strong state (the paper's recovery argument).
	s.Update(b, true)
	s.Update(b, true)
	if s.State(b) != StrongTaken {
		t.Fatalf("B failed to converge: state = %d", s.State(b))
	}
}

func TestSplitPredOnlyReadOnCorrectPath(t *testing.T) {
	// Behavioral check of the §4.3 claim: Strengthen never changes the
	// prediction bit, for any reachable state.
	s := MustSplit(4, 4)
	for _, st := range []uint8{WeakNotTaken, StrongNotTaken} {
		s.SetState(0, st)
		s.Strengthen(0, false)
		if s.Pred(0) {
			t.Errorf("Strengthen flipped the prediction bit from state %d", st)
		}
	}
	for _, st := range []uint8{WeakTaken, StrongTaken} {
		s.SetState(0, st)
		s.Strengthen(0, true)
		if !s.Pred(0) {
			t.Errorf("Strengthen flipped the prediction bit from state %d", st)
		}
	}
}

func TestSplitQuickEquivalence(t *testing.T) {
	// Property: with full-size hysteresis, any bounded op sequence keeps
	// Split and the classic array in lockstep.
	f := func(ops []byte) bool {
		s := MustSplit(32, 32)
		a := NewArray(32, WeakNotTaken)
		for _, op := range ops {
			i := uint64(op & 31)
			taken := op&32 != 0
			s.Update(i, taken)
			a.Update(i, taken)
			if s.State(i) != a.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSatStepTransitionTable(t *testing.T) {
	cases := []struct {
		from  uint8
		taken bool
		want  uint8
	}{
		{0, true, 1}, {1, true, 2}, {2, true, 3}, {3, true, 3},
		{3, false, 2}, {2, false, 1}, {1, false, 0}, {0, false, 0},
	}
	for _, c := range cases {
		if got := SatStep(c.from, c.taken); got != c.want {
			t.Errorf("SatStep(%d, %v) = %d, want %d", c.from, c.taken, got, c.want)
		}
	}
}

func TestUpdateNReturnsAndSaturates(t *testing.T) {
	// UpdateN must report the pre- and post-transition states and leave the
	// array exactly where Set+SatStep would, including at both rails.
	a := NewArray(64, 0)
	for from := uint8(0); from < 4; from++ {
		for _, taken := range []bool{false, true} {
			a.Set(7, from)
			old, next := a.UpdateN(7, taken)
			if old != from {
				t.Errorf("UpdateN(%d, %v): old = %d", from, taken, old)
			}
			if want := SatStep(from, taken); next != want || a.Get(7) != want {
				t.Errorf("UpdateN(%d, %v): next = %d, stored = %d, want %d",
					from, taken, next, a.Get(7), want)
			}
		}
	}
	// Saturation boundaries: repeated updates pin at the rails and keep
	// reporting (rail, rail).
	a.Set(0, StrongTaken)
	for i := 0; i < 5; i++ {
		if old, next := a.UpdateN(0, true); old != StrongTaken || next != StrongTaken {
			t.Fatalf("taken rail iteration %d: (%d, %d)", i, old, next)
		}
	}
	a.Set(0, StrongNotTaken)
	for i := 0; i < 5; i++ {
		if old, next := a.UpdateN(0, false); old != StrongNotTaken || next != StrongNotTaken {
			t.Fatalf("not-taken rail iteration %d: (%d, %d)", i, old, next)
		}
	}
	// Neighbors in the same backing word are untouched by the single-word
	// read-modify-write.
	a.Set(8, WeakTaken)
	a.Set(9, StrongTaken)
	a.UpdateN(8, false)
	if a.Get(9) != StrongTaken || a.Get(7) != StrongTaken {
		t.Error("UpdateN disturbed neighboring counters")
	}
}

func TestUpdateNMatchesReferenceSequence(t *testing.T) {
	// A random UpdateN sequence must track the []uint8 model, old/next
	// included, across word boundaries.
	a := NewArray(256, WeakNotTaken)
	ref := make([]uint8, 256)
	for i := range ref {
		ref[i] = WeakNotTaken
	}
	r := rng.New(99, 0)
	for step := 0; step < 100000; step++ {
		i := uint64(r.Intn(256))
		taken := r.Bool(0.5)
		old, next := a.UpdateN(i, taken)
		wantOld := ref[i]
		ref[i] = SatStep(ref[i], taken)
		if old != wantOld || next != ref[i] {
			t.Fatalf("step %d idx %d: (%d, %d), want (%d, %d)", step, i, old, next, wantOld, ref[i])
		}
	}
}

func TestArrayTakenBit(t *testing.T) {
	a := NewArray(64, 0)
	for st := uint8(0); st < 4; st++ {
		a.Set(33, st)
		want := uint64(0)
		if st >= 2 {
			want = 1
		}
		if got := a.TakenBit(33); got != want {
			t.Errorf("state %d: TakenBit = %d, want %d", st, got, want)
		}
		if (a.TakenBit(33) == 1) != a.Taken(33) {
			t.Errorf("state %d: TakenBit disagrees with Taken", st)
		}
	}
}

func TestBitArrayBit(t *testing.T) {
	b := NewBitArray(128)
	b.Set(0, true)
	b.Set(63, true)
	b.Set(64, true)
	for _, i := range []uint64{0, 1, 62, 63, 64, 65, 127} {
		want := uint64(0)
		if b.Get(i) {
			want = 1
		}
		if got := b.Bit(i); got != want {
			t.Errorf("Bit(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSplitPredBit(t *testing.T) {
	s := MustSplit(16, 8)
	for st := uint8(0); st < 4; st++ {
		s.SetState(5, st)
		want := uint64(0)
		if st >= 2 {
			want = 1
		}
		if got := s.PredBit(5); got != want {
			t.Errorf("state %d: PredBit = %d, want %d", st, got, want)
		}
	}
}

func BenchmarkArrayUpdate(b *testing.B) {
	a := NewArray(1<<16, WeakNotTaken)
	for i := 0; i < b.N; i++ {
		a.Update(uint64(i), i&3 != 0)
	}
}

func BenchmarkSplitUpdate(b *testing.B) {
	s := MustSplit(1<<16, 1<<15)
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i), i&3 != 0)
	}
}

func BenchmarkSplitPred(b *testing.B) {
	s := MustSplit(1<<16, 1<<15)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = sink != s.Pred(uint64(i))
	}
	_ = sink
}

func TestSplitTrafficCounters(t *testing.T) {
	s := MustSplit(16, 16)
	// Strengthen: one hysteresis write, nothing else.
	s.Strengthen(0, false)
	pw, hw, hr := s.Traffic()
	if pw != 0 || hw != 1 || hr != 0 {
		t.Errorf("after Strengthen: traffic = %d/%d/%d", pw, hw, hr)
	}
	// Wrong-direction update on a weak counter: hysteresis read +
	// prediction write.
	s.SetState(1, WeakNotTaken)
	s.Update(1, true)
	pw, hw, hr = s.Traffic()
	if pw != 1 || hr != 1 {
		t.Errorf("after weak flip: traffic = %d/%d/%d", pw, hw, hr)
	}
	// Wrong-direction update on a strong counter: hysteresis read+write.
	s.SetState(2, StrongNotTaken)
	s.Update(2, true)
	pw2, hw2, hr2 := s.Traffic()
	if pw2 != pw || hw2 != hw+1 || hr2 != hr+1 {
		t.Errorf("after strong weaken: traffic = %d/%d/%d", pw2, hw2, hr2)
	}
}

// expectPanic reports whether f panics.
func expectPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestStoredMaskOutOfRangePanics pins the bounds behaviour of the index
// mask the arrays store at construction: a non-power-of-two array masks
// nothing, so an index past its backing words still panics on every
// accessor, while a power-of-two array wraps the same index.
func TestStoredMaskOutOfRangePanics(t *testing.T) {
	const far = 1 << 20
	a := NewArray(100, 0)
	b := NewBitArray(100)
	for name, f := range map[string]func(){
		"Array.Get":         func() { a.Get(far) },
		"Array.Set":         func() { a.Set(far, 1) },
		"Array.TakenBit":    func() { a.TakenBit(far) },
		"Array.UpdateN":     func() { a.UpdateN(far, true) },
		"BitArray.Get":      func() { b.Get(far) },
		"BitArray.Bit":      func() { b.Bit(far) },
		"BitArray.Set":      func() { b.Set(far, true) },
		"Array.Get(max)":    func() { a.Get(^uint64(0)) },
		"BitArray.Bit(max)": func() { b.Bit(^uint64(0)) },
	} {
		if !expectPanic(f) {
			t.Errorf("%s: out-of-range index on a 100-entry array did not panic", name)
		}
	}
	pa, pb := NewArray(128, 0), NewBitArray(128)
	pa.Set(far+5, 3)
	pb.Set(far+5, true)
	if pa.Get(5) != 3 || !pb.Get(5) {
		t.Error("power-of-two arrays no longer wrap an out-of-range index")
	}
}

// TestStoredMaskTouchesSameBits checks that every in-range write lands on
// exactly the bits the per-access mask derivation addressed: counter i of
// an Array in word i/32 at bit 2*(i%32), bit i of a BitArray in word i/64
// at bit i%64, nothing else changed — for power-of-two sizes, where the
// mask is n-1, and for other sizes, where it is all ones.
func TestStoredMaskTouchesSameBits(t *testing.T) {
	for _, n := range []int{1, 3, 32, 33, 64, 100, 128, 1000, 1024} {
		a := NewArray(n, 0)
		b := NewBitArray(n)
		for i := uint64(0); i < uint64(n); i++ {
			v := uint8(i%3) + 1
			a.Set(i, v)
			wantA := make([]uint64, a.WordCount())
			wantA[i>>5] = uint64(v) << ((i & 31) * 2)
			if got := a.StateWords(); !slices.Equal(got, wantA) {
				t.Fatalf("n=%d: Array.Set(%d, %d) wrote %x, want %x", n, i, v, got, wantA)
			}
			if a.Get(i) != v || a.TakenBit(i) != uint64(v>>1) {
				t.Fatalf("n=%d: Array reads of %d = %d/%d, want %d", n, i, a.Get(i), a.TakenBit(i), v)
			}
			a.Set(i, 0)

			b.Set(i, true)
			wantB := make([]uint64, b.WordCount())
			wantB[i>>6] = 1 << (i & 63)
			if got := b.StateWords(); !slices.Equal(got, wantB) {
				t.Fatalf("n=%d: BitArray.Set(%d) wrote %x, want %x", n, i, got, wantB)
			}
			if !b.Get(i) || b.Bit(i) != 1 {
				t.Fatalf("n=%d: BitArray reads of %d disagree with the write", n, i)
			}
			b.Set(i, false)
		}
	}
}

// TestSplitBits checks that Bits returns the prediction bit and the
// shared hysteresis bit of every classical state, through the
// hysteresis sharing of a half-size hysteresis array.
func TestSplitBits(t *testing.T) {
	s := MustSplit(64, 32)
	for i := uint64(0); i < 64; i++ {
		for v := uint8(0); v < 4; v++ {
			s.SetState(i, v)
			pred, strong := s.Bits(i)
			wantPred, wantStrong := uint64(v>>1), uint64(0)
			if v == StrongNotTaken || v == StrongTaken {
				wantStrong = 1
			}
			if pred != wantPred || strong != wantStrong {
				t.Fatalf("index %d state %d: Bits = (%d, %d), want (%d, %d)", i, v, pred, strong, wantPred, wantStrong)
			}
			if p, h := s.Bits(i ^ 32); h != strong || p != s.PredBit(i^32) {
				t.Fatalf("index %d: aliased index %d reads hysteresis %d, want the shared %d", i, i^32, h, strong)
			}
		}
	}
}
