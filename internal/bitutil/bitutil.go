// Package bitutil provides the bit-manipulation primitives underlying the
// predictor index functions: field extraction, XOR-folding of long history
// vectors into narrow indices, parity, and formatting helpers used by tests
// and debug output.
//
// Throughout the library, bit i of a uint64 denotes the bit of weight 1<<i,
// matching the paper's notation (h0 is the most recent history bit, a2 is
// PC bit 2, and so on).
package bitutil

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Bit returns bit i of x (0 or 1).
func Bit(x uint64, i int) uint64 {
	return (x >> uint(i)) & 1
}

// Field extracts bits [lo, lo+width) of x, right-aligned.
func Field(x uint64, lo, width int) uint64 {
	return (x >> uint(lo)) & Mask(width)
}

// Deposit places the low width bits of v at position lo of x and returns
// the result. Bits of v above width are ignored.
func Deposit(x, v uint64, lo, width int) uint64 {
	m := Mask(width) << uint(lo)
	return (x &^ m) | ((v << uint(lo)) & m)
}

// Parity returns the XOR of all bits of x (0 or 1).
func Parity(x uint64) uint64 {
	return uint64(bits.OnesCount64(x) & 1)
}

// ParityMasked returns the XOR of the bits of x selected by mask.
func ParityMasked(x, mask uint64) uint64 {
	return Parity(x & mask)
}

// FoldXOR folds the low histLen bits of v into an out-bit-wide value by
// XORing successive out-bit chunks together. It is the standard way to use
// a history vector longer than the index width ("very long history", §5.3
// of the paper). out must be in (0, 64]. The loop runs a fixed
// ceil(histLen/out) times, whatever the bits of v.
func FoldXOR(v uint64, histLen, out int) uint64 {
	if out <= 0 || out > 64 {
		panic(fmt.Sprintf("bitutil: FoldXOR out width %d out of range", out))
	}
	v &= Mask(histLen)
	if histLen > 64 {
		histLen = 64
	}
	m := Mask(out)
	var r uint64
	for s := 0; s < histLen; s += out {
		r ^= v & m
		v >>= uint(out)
	}
	return r
}

// ReverseBits returns the low n bits of x in reversed order (bit 0 becomes
// bit n-1). Used by tests exploring index symmetry.
func ReverseBits(x uint64, n int) uint64 {
	return bits.Reverse64(x&Mask(n)) >> uint(64-n)
}

// Select gathers arbitrary bits of x: bit k of the result is Bit(x, idx[k]).
// It mirrors the paper's style of building an index from named bits, e.g.
// (i10..i5) = (h3,h2,h1,h0,a8,a7) is Select(concat, []int{...}).
func Select(x uint64, idx []int) uint64 {
	var r uint64
	for k, i := range idx {
		r |= Bit(x, i) << uint(k)
	}
	return r
}

// Spread scatters the low len(idx) bits of v into a word: bit idx[k] of the
// result is bit k of v. It is the inverse of Select for disjoint idx.
func Spread(v uint64, idx []int) uint64 {
	var r uint64
	for k, i := range idx {
		r |= Bit(v, k) << uint(i)
	}
	return r
}

// BitString renders the low n bits of x most-significant-first, e.g.
// BitString(0b101, 4) == "0101". Intended for tests and debugging.
func BitString(x uint64, n int) string {
	var b strings.Builder
	for i := n - 1; i >= 0; i-- {
		if Bit(x, i) == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Log2 returns floor(log2(x)) for x > 0 and panics on x == 0. Table sizes in
// this library are powers of two; IsPow2+Log2 validate and convert them.
func Log2(x uint64) int {
	if x == 0 {
		panic("bitutil: Log2(0)")
	}
	return 63 - bits.LeadingZeros64(x)
}

// IsPow2 reports whether x is a power of two (x > 0).
func IsPow2(x uint64) bool {
	return x != 0 && x&(x-1) == 0
}
