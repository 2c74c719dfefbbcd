// Package skew implements the skewing-function family of Seznec and Bodin
// ("Skewed associative caches", PARLE'93) that the e-gskew and 2Bc-gskew
// predictors use to index their banks when no hardware constraint is imposed
// on the index functions (the "standard skewing functions from [17]" of the
// paper, used everywhere in §8 except §8.5).
//
// The family is built from a bijective one-bit mixing step H over n-bit
// values and its inverse Hinv. H is a Galois-LFSR step: a right shift with a
// tap-mask feedback. Because H is a bijection, each per-bank index function
//
//	f_k(v1, v2) = H^k(v1) XOR Hinv^k(v2) XOR v1-offset-mix
//
// is a bijection of (v1, v2) onto pairs, and distinct banks k disperse
// conflicts: two (address, history) vectors that collide in one bank are
// mapped apart in the others with high probability — the inter-bank
// dispersion property that §7.2 of the paper relies on.
package skew

import (
	"fmt"

	"ev8pred/internal/bitutil"
)

// Func indexes one bank of a skewed structure. Given an information vector
// split into two n-bit halves it produces an n-bit bank index.
type Func struct {
	n    int    // index width in bits
	k    int    // bank number (how many times H / Hinv are applied)
	taps uint64 // feedback taps for the Galois step, within Mask(n); bit n-1 always set
}

// H applies the forward mixing step once: a one-bit right shift where a set
// low bit injects the tap mask. H is a bijection on n-bit values.
func (f *Func) H(x uint64) uint64 {
	x &= bitutil.Mask(f.n)
	low := x & 1
	x >>= 1
	if low == 1 {
		x ^= f.taps
	}
	return x
}

// Hinv applies the inverse of H once: Hinv(H(x)) == x for all n-bit x.
//
// If the H input is in = 2y+b then H(in) = y ^ b·taps. Since y < 2^(n-1)
// its top bit is 0, and taps always has bit n-1 set (NewFamily enforces
// this), so the top bit of H(in) equals b; undoing the conditional tap
// injection and shifting b back in recovers the input.
func (f *Func) Hinv(x uint64) uint64 {
	x &= bitutil.Mask(f.n)
	b := (x >> uint(f.n-1)) & 1
	y := x
	if b == 1 {
		y ^= f.taps
	}
	return ((y << 1) | b) & bitutil.Mask(f.n)
}

// Index computes the bank index for the information vector v, of which the
// low vlen bits are meaningful. The vector is split into two n-bit halves:
// v1 is the low n bits, v2 the remaining vlen-n bits XOR-folded to n. The
// halves are mixed with the bank-specific bijections (IndexPair).
//
// Index, IndexPair, H and Hinv apply H and Hinv one step at a time. The
// map is GF(2)-linear in v, so predictors evaluate it from the byte-sliced
// tables NewLinear builds out of its images of unit vectors.
func (f *Func) Index(v uint64, vlen int) uint64 {
	v &= bitutil.Mask(vlen)
	v1 := v & bitutil.Mask(f.n)
	v2 := bitutil.FoldXOR(v>>uint(f.n), vlen-f.n, f.n)
	return f.IndexPair(v1, v2)
}

// IndexPair is like Index but takes the two halves explicitly:
// H^(k+1)(v1) XOR Hinv^(k+1)(v2) XOR v2, all over n bits.
func (f *Func) IndexPair(v1, v2 uint64) uint64 {
	mask := bitutil.Mask(f.n)
	h1, h2 := v1&mask, v2&mask
	for i := 0; i <= f.k; i++ {
		h1 = f.H(h1)
		h2 = f.Hinv(h2)
	}
	return h1 ^ h2 ^ v2&mask
}

// Bits returns the index width of the function.
func (f *Func) Bits() int { return f.n }

// Bank returns the bank number the function was created for.
func (f *Func) Bank() int { return f.k }

// NewFamily returns banks skewing functions producing n-bit indices.
// n must be in [2, 63].
func NewFamily(n, banks int) ([]*Func, error) {
	if n < 2 || n > 63 {
		return nil, fmt.Errorf("skew: index width %d out of range [2,63]", n)
	}
	if banks < 1 {
		return nil, fmt.Errorf("skew: need at least one bank, got %d", banks)
	}
	// A fixed, dense tap pattern with the top bit set (required by Hinv):
	// bits n-1, and roughly n/2 and n/3 and 0 spread taps across the word.
	taps := uint64(1)<<uint(n-1) | 1
	if n >= 4 {
		taps |= 1 << uint(n/2)
	}
	if n >= 6 {
		taps |= 1 << uint(n/3)
	}
	fam := make([]*Func, banks)
	for k := 0; k < banks; k++ {
		fam[k] = &Func{n: n, k: k, taps: taps}
	}
	return fam, nil
}

// MustFamily is NewFamily but panics on error; for static configurations.
func MustFamily(n, banks int) []*Func {
	fam, err := NewFamily(n, banks)
	if err != nil {
		panic(err)
	}
	return fam
}
