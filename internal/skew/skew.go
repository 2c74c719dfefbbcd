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
// Index, IndexPair, H and Hinv are the primitive-step reference: they
// apply H and Hinv one step at a time. Predictors evaluate through the
// closed form Compile returns, which reproduces this map bit for bit.
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

// maxTableReps bounds the repetition count the closed form tabulates:
// its two tables hold 2^r entries each. Banks with more repetitions
// (k+1 > maxTableReps) fall back to iterating the steps.
const maxTableReps = 4

// Compiled is a skewing function bound to a fixed information-vector
// length and evaluated in closed form.
//
// H is linear over GF(2), and a value whose low r bits are zero passes
// through r steps of H as a plain shift; likewise a value whose top r
// bits are zero passes through r steps of Hinv as a plain left shift. So
// with r = k+1 repetitions,
//
//	H^r(x)    = (x >> r) ^ lo[x & (2^r-1)]
//	Hinv^r(x) = ((x & (mask>>r)) << r) ^ hi[x >> (n-r)]
//
// where lo[t] = H^r(t) and hi[t] = Hinv^r(t << (n-r)) are 2^r-entry
// tables built from the primitive steps at construction. Together with
// the precomputed masks and the fixed fold count of the bound vector
// length, evaluation is straight-line code with no branch that depends
// on the data. Functions whose r exceeds maxTableReps, or reaches n,
// iterate the steps instead (NewFamily allows both; the predictors use
// r <= 3).
//
// Compiled is a plain value so predictors can embed it in fixed arrays
// without pointer chasing.
type Compiled struct {
	n      uint
	reps   uint   // r = k+1 applications of H / Hinv
	mask   uint64 // Mask(n)
	vmask  uint64 // Mask(vlen)
	folds  int    // n-bit chunks XOR-folded into v2: ceil((vlen-n)/n)
	loMask uint64 // 2^r - 1
	hiKeep uint64 // mask >> r
	hiShft uint   // n - r
	loop   bool   // r too large for the tables: iterate the steps
	taps   uint64
	lo, hi [1 << maxTableReps]uint64
}

// Compile returns the closed form of f bound to information vectors of
// vlen bits (Index's vlen). vlen above 64 behaves as 64. The result is
// immutable and safe for concurrent use.
func (f *Func) Compile(vlen int) Compiled {
	if vlen > 64 {
		vlen = 64
	}
	r := f.k + 1
	c := Compiled{
		n:     uint(f.n),
		reps:  uint(r),
		mask:  bitutil.Mask(f.n),
		vmask: bitutil.Mask(vlen),
		taps:  f.taps,
		loop:  r > maxTableReps || r >= f.n,
	}
	if vlen > f.n {
		c.folds = (vlen - f.n + f.n - 1) / f.n
	}
	if c.loop {
		return c
	}
	c.loMask = bitutil.Mask(r)
	c.hiKeep = c.mask >> uint(r)
	c.hiShft = uint(f.n - r)
	for t := uint64(0); t < 1<<uint(r); t++ {
		lo, hi := t, t<<c.hiShft
		for i := 0; i < r; i++ {
			lo = f.H(lo)
			hi = f.Hinv(hi)
		}
		c.lo[t], c.hi[t] = lo, hi
	}
	return c
}

// Bits returns the index width of the compiled function.
func (c *Compiled) Bits() int { return int(c.n) }

// IndexPair mixes the two n-bit halves exactly as Func.IndexPair.
func (c *Compiled) IndexPair(v1, v2 uint64) uint64 {
	v1 &= c.mask
	v2 &= c.mask
	if c.loop {
		return c.iterate(v1, v2)
	}
	return c.mix(v1, v2)
}

// Index computes Func.Index(v, vlen) for the bound vlen: the low n bits
// as v1, the remaining bits XOR-folded over the fixed chunk count as v2.
func (c *Compiled) Index(v uint64) uint64 {
	v &= c.vmask
	v1 := v & c.mask
	var v2 uint64
	for i := 0; i < c.folds; i++ {
		v >>= c.n & 63
		v2 ^= v & c.mask
	}
	if c.loop {
		return c.iterate(v1, v2)
	}
	return c.mix(v1, v2)
}

// mix is H^r(v1) ^ Hinv^r(v2) ^ v2 over masked halves, through the
// tables. Its callers test loop, which is fixed per function, not per
// datum.
func (c *Compiled) mix(v1, v2 uint64) uint64 {
	// The &63 and &tab masks change no value; they let the compiler
	// drop the oversized-shift fixups and the table bounds checks.
	const tab = 1<<maxTableReps - 1
	h1 := v1>>(c.reps&63) ^ c.lo[v1&c.loMask&tab]
	h2 := (v2&c.hiKeep)<<(c.reps&63) ^ c.hi[v2>>(c.hiShft&63)&tab]
	return h1 ^ h2 ^ v2
}

// iterate is the step-by-step fallback for large repetition counts: the
// branchless Galois forms of Func.H and Func.Hinv, r times each.
func (c *Compiled) iterate(h1, v2 uint64) uint64 {
	h2 := v2
	top := c.n - 1
	for i := uint(0); i < c.reps; i++ {
		h1 = (h1 >> 1) ^ (c.taps & -(h1 & 1))
		b := (h2 >> top) & 1
		h2 = (((h2 ^ (c.taps & -b)) << 1) | b) & c.mask
	}
	return h1 ^ h2 ^ v2
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
