package bitutil

import (
	"testing"
	"testing/quick"

	"ev8pred/internal/rng"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{-1, 0},
		{0, 0},
		{1, 1},
		{4, 0xf},
		{16, 0xffff},
		{63, 0x7fffffffffffffff},
		{64, ^uint64(0)},
		{100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestBitAndField(t *testing.T) {
	x := uint64(0b1011_0110)
	if Bit(x, 0) != 0 || Bit(x, 1) != 1 || Bit(x, 7) != 1 || Bit(x, 8) != 0 {
		t.Errorf("Bit extraction wrong for %#b", x)
	}
	if got := Field(x, 1, 3); got != 0b011 {
		t.Errorf("Field(x,1,3) = %#b, want 011", got)
	}
	if got := Field(x, 4, 4); got != 0b1011 {
		t.Errorf("Field(x,4,4) = %#b, want 1011", got)
	}
}

func TestDeposit(t *testing.T) {
	x := uint64(0)
	x = Deposit(x, 0b101, 4, 3)
	if x != 0b101_0000 {
		t.Fatalf("Deposit = %#b", x)
	}
	// Overwrite the same field.
	x = Deposit(x, 0b010, 4, 3)
	if x != 0b010_0000 {
		t.Fatalf("Deposit overwrite = %#b", x)
	}
	// Bits of v above width must be ignored.
	x = Deposit(0, 0xff, 0, 4)
	if x != 0xf {
		t.Fatalf("Deposit width clip = %#x", x)
	}
}

func TestDepositFieldRoundTrip(t *testing.T) {
	f := func(x, v uint64, loRaw, widthRaw uint8) bool {
		lo := int(loRaw) % 60
		width := int(widthRaw)%4 + 1
		y := Deposit(x, v, lo, width)
		return Field(y, lo, width) == v&Mask(width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParity(t *testing.T) {
	if Parity(0) != 0 {
		t.Error("Parity(0) != 0")
	}
	if Parity(1) != 1 {
		t.Error("Parity(1) != 1")
	}
	if Parity(0b1100_0011) != 0 {
		t.Error("even popcount should have parity 0")
	}
	if Parity(0b111) != 1 {
		t.Error("odd popcount should have parity 1")
	}
}

func TestParityMasked(t *testing.T) {
	x := uint64(0b1010_1010)
	if got := ParityMasked(x, 0b1111_0000); got != 0 {
		t.Errorf("ParityMasked high nibble = %d, want 0", got)
	}
	if got := ParityMasked(x, 0b0000_0010); got != 1 {
		t.Errorf("ParityMasked single set bit = %d, want 1", got)
	}
}

func TestFoldXOR(t *testing.T) {
	// 12-bit value folded to 4 bits: chunks 0xA, 0xB, 0xC.
	v := uint64(0xABC)
	want := uint64(0xA ^ 0xB ^ 0xC)
	if got := FoldXOR(v, 12, 4); got != want {
		t.Errorf("FoldXOR(0xABC,12,4) = %#x, want %#x", got, want)
	}
	// History shorter than the output width is passed through.
	if got := FoldXOR(0b101, 3, 8); got != 0b101 {
		t.Errorf("short fold = %#b", got)
	}
	// Bits above histLen are masked off.
	if got := FoldXOR(^uint64(0), 4, 8); got != 0xf {
		t.Errorf("histLen mask: got %#x", got)
	}
}

func TestFoldXORWidth64(t *testing.T) {
	v := uint64(0xdeadbeefcafebabe)
	if got := FoldXOR(v, 64, 64); got != v {
		t.Errorf("identity fold got %#x", got)
	}
}

func TestFoldXORPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FoldXOR with out=0 should panic")
		}
	}()
	FoldXOR(1, 4, 0)
}

// foldXORUntilZero is FoldXOR's former loop, whose exit depends on the
// data (it stops once the remaining bits are zero); kept as the reference
// for the fixed-count loop.
func foldXORUntilZero(v uint64, histLen, out int) uint64 {
	v &= Mask(histLen)
	var r uint64
	for v != 0 {
		r ^= v & Mask(out)
		v >>= uint(out)
	}
	return r
}

func TestFoldXORMatchesUntilZeroLoop(t *testing.T) {
	r := rng.New(5, 0)
	for histLen := 0; histLen <= 64; histLen++ {
		for out := 1; out <= 64; out++ {
			for i := 0; i < 16; i++ {
				v := r.Uint64() >> uint(r.Intn(64))
				if got, want := FoldXOR(v, histLen, out), foldXORUntilZero(v, histLen, out); got != want {
					t.Fatalf("FoldXOR(%#x, %d, %d) = %#x, want %#x", v, histLen, out, got, want)
				}
			}
		}
	}
	// Lengths past the word fold the same 64 bits.
	if got, want := FoldXOR(^uint64(0), 100, 7), foldXORUntilZero(^uint64(0), 100, 7); got != want {
		t.Fatalf("histLen 100: got %#x, want %#x", got, want)
	}
}

func TestFoldXORPreservesEntropy(t *testing.T) {
	// Folding a one-hot vector always yields a nonzero result: no
	// information-free collapse of single bits.
	for i := 0; i < 40; i++ {
		if FoldXOR(1<<uint(i), 40, 10) == 0 {
			t.Errorf("one-hot bit %d folded to zero", i)
		}
	}
}

func TestReverseBits(t *testing.T) {
	if got := ReverseBits(0b0001, 4); got != 0b1000 {
		t.Errorf("ReverseBits = %#b", got)
	}
	f := func(x uint64) bool {
		return ReverseBits(ReverseBits(x, 17), 17) == x&Mask(17)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectSpread(t *testing.T) {
	idx := []int{3, 7, 11, 0}
	x := uint64(0b1000_0000_1001)
	// bit3=1, bit7=0, bit11=1, bit0=1
	if got := Select(x, idx); got != 0b1101 {
		t.Errorf("Select = %#b, want 1101", got)
	}
	// Spread is the inverse over disjoint indices.
	f := func(v uint64) bool {
		s := Spread(v, idx)
		return Select(s, idx) == v&Mask(len(idx))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitString(t *testing.T) {
	if got := BitString(0b101, 4); got != "0101" {
		t.Errorf("BitString = %q", got)
	}
	if got := BitString(0, 3); got != "000" {
		t.Errorf("BitString zero = %q", got)
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1 << 20: 20}
	for x, want := range cases {
		if got := Log2(x); got != want {
			t.Errorf("Log2(%d) = %d, want %d", x, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(0) should panic")
		}
	}()
	Log2(0)
}

func TestIsPow2(t *testing.T) {
	for i := 0; i < 63; i++ {
		if !IsPow2(1 << uint(i)) {
			t.Errorf("IsPow2(1<<%d) = false", i)
		}
	}
	for _, x := range []uint64{0, 3, 5, 6, 7, 9, 1000} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true", x)
		}
	}
}

func TestSelectMatchesManual(t *testing.T) {
	// Reproduce the paper's wordline selection style:
	// (i10..i5) = (h3,h2,h1,h0,a8,a7) with h packed above a in one word.
	// Build the combined word: a in bits 0..51, h in bits 52..72 is too
	// wide, so tests use a 32-bit a and h at bit 32.
	a := uint64(0b1_1000_0000) // a8=1, a7=1
	h := uint64(0b1010)        // h3=1,h2=0,h1=1,h0=0
	combined := a | h<<32
	idx := []int{7, 8, 32, 33, 34, 35} // a7,a8,h0,h1,h2,h3 -> i5..i10
	got := Select(combined, idx)
	// i5=a7=1, i6=a8=1, i7=h0=0, i8=h1=1, i9=h2=0, i10=h3=1
	want := uint64(0b101011)
	if got != want {
		t.Errorf("wordline select = %#b, want %#b", got, want)
	}
}

func TestFoldEquivalentToManualChunks(t *testing.T) {
	f := func(v uint64) bool {
		const histLen, out = 37, 9
		var want uint64
		x := v & Mask(histLen)
		for sh := 0; sh < histLen; sh += out {
			want ^= (x >> uint(sh)) & Mask(out)
		}
		return FoldXOR(v, histLen, out) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFoldXOR(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= FoldXOR(uint64(i)*0x9e3779b97f4a7c15, 27, 16)
	}
	_ = sink
}

func BenchmarkSelect(b *testing.B) {
	idx := []int{7, 8, 32, 33, 34, 35}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Select(uint64(i), idx)
	}
	_ = sink
}
