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

func TestCompiledMatchesPrimitiveSteps(t *testing.T) {
	// Exhaustive over both halves at a small width, for every bank depth:
	// r = 1..4 takes the tables, r = 5 (bank 4) iterates the steps.
	for k, f := range MustFamily(6, 5) {
		c := f.Compile(12)
		if c.Bits() != 6 {
			t.Fatalf("bank %d: Compiled.Bits = %d", k, c.Bits())
		}
		if wantLoop := k+1 > maxTableReps; c.loop != wantLoop {
			t.Fatalf("bank %d: loop = %v, want %v", k, c.loop, wantLoop)
		}
		for v1 := uint64(0); v1 < 1<<6; v1++ {
			for v2 := uint64(0); v2 < 1<<6; v2++ {
				if got, want := c.IndexPair(v1, v2), f.IndexPair(v1, v2); got != want {
					t.Fatalf("bank %d: IndexPair(%#x, %#x) = %#x, want %#x", k, v1, v2, got, want)
				}
			}
		}
	}
}

func TestCompiledMatchesPrimitiveStepsRandom(t *testing.T) {
	// Every width n in [2,63] × bank k in [0,5] × vector length vlen in
	// [n,64] × random vectors with bits above vlen set: the table path,
	// the fallback for r = k+1 above the tables, and r >= n (small n).
	r := rng.New(23, 0)
	paths := map[bool]int{}
	for n := 2; n <= 63; n++ {
		for k, f := range MustFamily(n, 6) {
			for vlen := n; vlen <= 64; vlen++ {
				c := f.Compile(vlen)
				paths[c.loop]++
				for i := 0; i < 8; i++ {
					v, v1, v2 := r.Uint64(), r.Uint64(), r.Uint64()
					if got, want := c.Index(v), f.Index(v, vlen); got != want {
						t.Fatalf("n=%d k=%d vlen=%d: Index(%#x) = %#x, want %#x", n, k, vlen, v, got, want)
					}
					if got, want := c.IndexPair(v1, v2), f.IndexPair(v1, v2); got != want {
						t.Fatalf("n=%d k=%d: IndexPair(%#x, %#x) = %#x, want %#x", n, k, v1, v2, got, want)
					}
				}
			}
		}
	}
	if paths[false] == 0 || paths[true] == 0 {
		t.Fatalf("paths not both covered: %v", paths)
	}
}

func TestCompiledIndexMatchesFunc(t *testing.T) {
	// The bound form at the vector lengths the predictors use, and past
	// 64 (Compile clamps vlen, as Func.Index's masks do).
	for _, vlen := range []int{13, 40, 64, 80} {
		for _, f := range MustFamily(13, 3) {
			c := f.Compile(vlen)
			g := func(v uint64) bool {
				return c.Index(v) == f.Index(v, vlen) && c.Index(v) < 1<<13
			}
			if err := quick.Check(g, nil); err != nil {
				t.Errorf("vlen %d: %v", vlen, err)
			}
		}
	}
}

// FuzzSkewBound checks the closed form bound to a vector length against
// the primitive steps for any width, bank, vector length and vector.
func FuzzSkewBound(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(37), uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(2), uint8(5), uint8(64), ^uint64(0))
	f.Add(uint8(63), uint8(0), uint8(63), uint64(1)<<62)
	f.Fuzz(func(t *testing.T, n, k, vlen uint8, v uint64) {
		width := 2 + int(n)%62            // [2,63]
		bank := int(k) % 8                // both sides of maxTableReps
		l := width + int(vlen)%(65-width) // [width,64]
		fn := MustFamily(width, bank+1)[bank]
		c := fn.Compile(l)
		if got, want := c.Index(v), fn.Index(v, l); got != want {
			t.Fatalf("n=%d k=%d vlen=%d: Index(%#x) = %#x, want %#x", width, bank, l, v, got, want)
		}
		v2 := v*0x9e3779b97f4a7c15 + 1
		if got, want := c.IndexPair(v, v2), fn.IndexPair(v, v2); got != want {
			t.Fatalf("n=%d k=%d: IndexPair(%#x, %#x) = %#x, want %#x", width, bank, v, v2, got, want)
		}
	})
}

func BenchmarkCompiledIndex(b *testing.B) {
	c := MustFamily(16, 3)[2].Compile(37)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.Index(uint64(i) * 0x9e3779b97f4a7c15)
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
