package skew

import (
	"testing"
	"testing/quick"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/rng"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(1, 3); err == nil {
		t.Error("width 1 should be rejected")
	}
	if _, err := NewFamily(64, 3); err == nil {
		t.Error("width 64 should be rejected")
	}
	if _, err := NewFamily(16, 0); err == nil {
		t.Error("zero banks should be rejected")
	}
	fam, err := NewFamily(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 3 {
		t.Fatalf("got %d banks", len(fam))
	}
	for k, f := range fam {
		if f.Bank() != k || f.Bits() != 16 {
			t.Errorf("bank %d: Bank=%d Bits=%d", k, f.Bank(), f.Bits())
		}
	}
}

func TestMustFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFamily with bad width should panic")
		}
	}()
	MustFamily(0, 2)
}

func TestHBijective(t *testing.T) {
	// Exhaustively over a small width: H must be a permutation.
	fam := MustFamily(10, 1)
	f := fam[0]
	seen := make([]bool, 1<<10)
	for x := uint64(0); x < 1<<10; x++ {
		y := f.H(x)
		if y >= 1<<10 {
			t.Fatalf("H(%d) = %d out of range", x, y)
		}
		if seen[y] {
			t.Fatalf("H not injective: duplicate image %d", y)
		}
		seen[y] = true
	}
}

func TestHinvInvertsH(t *testing.T) {
	for _, n := range []int{2, 5, 10, 16, 21, 30, 63} {
		f := MustFamily(n, 1)[0]
		g := func(x uint64) bool {
			x &= bitutil.Mask(n)
			return f.Hinv(f.H(x)) == x && f.H(f.Hinv(x)) == x
		}
		if err := quick.Check(g, nil); err != nil {
			t.Errorf("width %d: %v", n, err)
		}
	}
}

func TestIndexInRange(t *testing.T) {
	fam := MustFamily(13, 3)
	g := func(v uint64) bool {
		for _, f := range fam {
			if f.Index(v, 40) >= 1<<13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexDeterministic(t *testing.T) {
	fam := MustFamily(16, 4)
	for _, f := range fam {
		if f.Index(0xdeadbeef, 32) != f.Index(0xdeadbeef, 32) {
			t.Fatal("Index is not deterministic")
		}
	}
}

func TestBanksDiffer(t *testing.T) {
	// The three banks must implement genuinely different mappings:
	// count vectors mapped to equal indices by two banks; it must be a
	// small fraction (random coincidence rate ~ 1/2^n).
	fam := MustFamily(12, 3)
	r := rng.New(7, 0)
	const trials = 4096
	same01, same02, same12 := 0, 0, 0
	for i := 0; i < trials; i++ {
		v := r.Uint64()
		i0, i1, i2 := fam[0].Index(v, 48), fam[1].Index(v, 48), fam[2].Index(v, 48)
		if i0 == i1 {
			same01++
		}
		if i0 == i2 {
			same02++
		}
		if i1 == i2 {
			same12++
		}
	}
	// Expected coincidences: trials / 4096 = 1. Allow generous slack.
	limit := trials / 128
	if same01 > limit || same02 > limit || same12 > limit {
		t.Errorf("banks too correlated: %d %d %d coincidences of %d",
			same01, same02, same12, trials)
	}
}

func TestInterBankDispersion(t *testing.T) {
	// The defining property of skewing (§7.2): pairs of vectors that
	// conflict in one bank should almost never conflict in another.
	fam := MustFamily(10, 3)
	r := rng.New(11, 1)
	const trials = 200000
	conflicts0, alsoConflict1, alsoConflict2 := 0, 0, 0
	for i := 0; i < trials; i++ {
		a, b := r.Uint64(), r.Uint64()
		if a == b {
			continue
		}
		if fam[0].Index(a, 40) == fam[0].Index(b, 40) {
			conflicts0++
			if fam[1].Index(a, 40) == fam[1].Index(b, 40) {
				alsoConflict1++
			}
			if fam[2].Index(a, 40) == fam[2].Index(b, 40) {
				alsoConflict2++
			}
		}
	}
	if conflicts0 == 0 {
		t.Skip("no bank-0 conflicts sampled")
	}
	// A pair conflicting in bank 0 should conflict elsewhere at roughly
	// the random rate (1/1024); flag if more than 5% carry over.
	if alsoConflict1*20 > conflicts0 || alsoConflict2*20 > conflicts0 {
		t.Errorf("conflicts carry across banks: %d base, %d/%d repeated",
			conflicts0, alsoConflict1, alsoConflict2)
	}
}

func TestIndexSpreadsUniformly(t *testing.T) {
	// Sequential information vectors (typical of sequential PCs) must
	// spread across the whole table, not cluster.
	f := MustFamily(8, 1)[0]
	counts := make([]int, 1<<8)
	const total = 1 << 14
	for v := uint64(0); v < total; v++ {
		counts[f.Index(v<<2, 30)]++
	}
	mean := total / (1 << 8)
	for idx, c := range counts {
		if c == 0 {
			t.Errorf("index %d never used", idx)
		}
		if c > mean*4 {
			t.Errorf("index %d overloaded: %d (mean %d)", idx, c, mean)
		}
	}
}

func TestHistoryBitMatters(t *testing.T) {
	// Flipping any single history bit inside vlen must change the index
	// of at least one bank in the family (the §7.5 criterion 2 analogue).
	fam := MustFamily(16, 3)
	base := uint64(0x5a5a_a5a5_3c3c)
	const vlen = 48
	for bit := 0; bit < vlen; bit++ {
		flipped := base ^ (1 << uint(bit))
		changed := false
		for _, f := range fam {
			if f.Index(base, vlen) != f.Index(flipped, vlen) {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("flipping bit %d changes no bank index", bit)
		}
	}
}

func TestIndexIgnoresBitsAboveVlen(t *testing.T) {
	f := MustFamily(12, 1)[0]
	v := uint64(0x123456789abcdef)
	if f.Index(v, 20) != f.Index(v&bitutil.Mask(20), 20) {
		t.Error("bits above vlen leaked into the index")
	}
}

func TestIndexPairMatchesIndexForShortVectors(t *testing.T) {
	f := MustFamily(14, 2)[0]
	g := func(v1, v2 uint64) bool {
		v1 &= bitutil.Mask(14)
		v2 &= bitutil.Mask(14)
		v := v1 | v2<<14
		return f.Index(v, 28) == f.IndexPair(v1, v2)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// linearOf builds the tables of four family members bound to vlen, one
// per lane, with the whole vector in input word 0: the map the predictors
// evaluate, built the way they build it.
func linearOf(t testing.TB, fns []*Func, vlen int) *Linear {
	t.Helper()
	type key struct{ n, k, lanes, vlen int }
	l, err := NewLinear(key{fns[0].Bits(), fns[0].Bank(), len(fns), vlen}, func(w, i int) (idx [4]uint64) {
		if w == 0 {
			for b, f := range fns {
				idx[b] = f.Index(1<<i, vlen)
			}
		}
		return idx
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkLinear compares the tables with Func.Index on v.
func checkLinear(t *testing.T, l *Linear, fns []*Func, vlen int, v uint64) {
	t.Helper()
	var idx [4]uint64
	l.Index(v, 0, 0, &idx)
	for b, f := range fns {
		if want := f.Index(v, vlen); idx[b] != want {
			t.Fatalf("n=%d k=%d vlen=%d: lane %d of %#x = %#x, want Func.Index %#x", f.Bits(), f.Bank(), vlen, b, v, idx[b], want)
		}
	}
}

func TestLinearMatchesPrimitiveSteps(t *testing.T) {
	// Exhaustive over both halves at a small width, for bank depths 1..8.
	fam := MustFamily(6, 8)
	for _, fns := range [][]*Func{fam[:4], fam[4:]} {
		l := linearOf(t, fns, 12)
		for v := uint64(0); v < 1<<12; v++ {
			checkLinear(t, l, fns, 12, v)
		}
	}
}

// The "Compiled" tests check the skewing functions compiled into linear
// tables (NewLinear) against the primitive steps of Func.Index.

func TestCompiledMatchesPrimitiveStepsRandom(t *testing.T) {
	// Every width n in [2,32] × bank k in [0,7] × vector length vlen in
	// [n,64] and past 64, on random vectors with bits above vlen set.
	r := rng.New(23, 0)
	for n := 2; n <= 32; n++ {
		fam := MustFamily(n, 8)
		for vlen := n; vlen <= 66; vlen++ {
			for _, fns := range [][]*Func{fam[:4], fam[4:]} {
				l := linearOf(t, fns, vlen)
				for i := 0; i < 8; i++ {
					checkLinear(t, l, fns, vlen, r.Uint64())
				}
			}
		}
	}
}

func TestCompiledIndexMatchesFunc(t *testing.T) {
	// The tables at the vector lengths the predictors use, and past 64
	// (Func.Index's masks clamp vlen, so the images do too).
	for _, vlen := range []int{13, 40, 64, 80} {
		fns := MustFamily(13, 3)
		l := linearOf(t, fns, vlen)
		g := func(v uint64) bool {
			var idx [4]uint64
			l.Index(v, 0, 0, &idx)
			for b, f := range fns {
				if idx[b] != f.Index(v, vlen) || idx[b] >= 1<<13 {
					return false
				}
			}
			return idx[3] == 0
		}
		if err := quick.Check(g, nil); err != nil {
			t.Errorf("vlen %d: %v", vlen, err)
		}
	}
}

func TestLinearWordsAndLanes(t *testing.T) {
	// Each lane reads each input word through its own images: lane b is
	// the XOR of bank b's index of x0, of x1<<8 and of x2<<16.
	fns := MustFamily(20, 4)
	l, err := NewLinear("words and lanes", func(w, i int) (idx [4]uint64) {
		for b, f := range fns {
			idx[b] = f.Index(uint64(1)<<i<<(8*w), 40)
		}
		return idx
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(29, 0)
	for i := 0; i < 10000; i++ {
		x0, x1, x2 := r.Uint64()&0xff_ffff, r.Uint64()&0xffff, r.Uint64()&0xff
		var idx [4]uint64
		l.Index(x0, x1, x2, &idx)
		for b, f := range fns {
			if want := f.Index(x0^x1<<8^x2<<16, 40); idx[b] != want {
				t.Fatalf("lane %d of (%#x, %#x, %#x) = %#x, want %#x", b, x0, x1, x2, idx[b], want)
			}
		}
	}
	// One table per byte up to the highest bit with a non-zero image.
	if got := [3]int{len(l.t[0]), len(l.t[1]), len(l.t[2])}; got != [3]int{5, 4, 3} {
		t.Errorf("tables per word = %v, want [5 4 3]", got)
	}
}

func TestLinearShared(t *testing.T) {
	fns := MustFamily(16, 4)
	a, b := linearOf(t, fns, 37), linearOf(t, fns, 37)
	if a != b {
		t.Error("equal maps built two table sets")
	}
	if c := linearOf(t, fns, 36); c == a {
		t.Error("different maps share tables")
	}
}

func TestLinearRejectsWideLanes(t *testing.T) {
	_, err := NewLinear("33 bits", func(w, i int) [4]uint64 { return [4]uint64{3: 1 << 32} })
	if err == nil {
		t.Fatal("a 33-bit image was accepted")
	}
	if _, err := NewLinear("32 bits", func(w, i int) [4]uint64 { return [4]uint64{3: 1<<32 - 1} }); err != nil {
		t.Fatalf("a 32-bit image was rejected: %v", err)
	}
}

// FuzzSkewBound checks the tables of the skewing functions bound to a
// vector length against the primitive steps for any width the predictors
// accept, bank, vector length and vector.
func FuzzSkewBound(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(37), uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(2), uint8(5), uint8(64), ^uint64(0))
	f.Add(uint8(32), uint8(0), uint8(63), uint64(1)<<62)
	f.Fuzz(func(t *testing.T, n, k, vlen uint8, v uint64) {
		width := 2 + int(n)%31            // [2,32]
		bank := int(k) % 8                // lane 0's bank; lanes 1..3 take the next three
		l := width + int(vlen)%(65-width) // [width,64]
		fns := MustFamily(width, bank+4)[bank:]
		checkLinear(t, linearOf(t, fns, l), fns, l, v)
	})
}

func BenchmarkLinearIndex(b *testing.B) {
	l := linearOf(b, MustFamily(16, 4), 37)
	var idx [4]uint64
	var sink uint64
	for i := 0; i < b.N; i++ {
		l.Index(uint64(i)*0x9e3779b97f4a7c15, 0, 0, &idx)
		sink ^= idx[2]
	}
	_ = sink
}

func BenchmarkIndex(b *testing.B) {
	f := MustFamily(16, 3)[2]
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= f.Index(uint64(i)*0x9e3779b97f4a7c15, 37)
	}
	_ = sink
}
