// Package counter implements the saturating-counter storage used by every
// predictor in the library.
//
// Two representations are provided:
//
//   - Array: a densely packed array of classical 2-bit saturating counters
//     (states 0..3, taken iff state >= 2), used by the monolithic baseline
//     predictors (bimodal, gshare, GAs, bi-mode, YAGS, agree, local).
//
//   - Split: a 2-bit counter array stored as two physically separate bit
//     arrays — a prediction array and a hysteresis array — as in the Alpha
//     EV8 (§4.3 of the paper). The hysteresis array may be smaller than the
//     prediction array (§4.4): two (or more) prediction entries then share
//     one hysteresis entry, and the hysteresis index is the prediction index
//     with its most significant bits dropped.
//
// Counter-state conventions match the paper: the initial state of all
// entries is "weakly not taken", which in the split encoding is
// prediction=0, hysteresis=0 — conveniently the all-zero state.
package counter

import (
	"fmt"

	"ev8pred/internal/bitutil"
)

// State labels for the classical 2-bit counter, for readable tests.
const (
	StrongNotTaken = 0
	WeakNotTaken   = 1
	WeakTaken      = 2
	StrongTaken    = 3
)

// Array is a packed array of 2-bit saturating counters.
type Array struct {
	words   []uint64
	entries uint64
	mask    uint64 // see indexMask
}

// fillUnit has bit 0 of every 2-bit counter lane set; multiplying by a
// counter value v in 0..3 replicates v into all 32 lanes without carries.
const fillUnit = 0x5555555555555555

// NewArray returns an Array of n counters, all initialized to init
// (one of the State constants). n must be positive.
func NewArray(n int, init uint8) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("counter: NewArray with n=%d", n))
	}
	a := &Array{words: make([]uint64, (n+31)/32), entries: uint64(n), mask: indexMask(uint64(n))}
	if init != 0 {
		a.Fill(init)
	}
	return a
}

// Len returns the number of counters.
func (a *Array) Len() int { return int(a.entries) }

// Fill sets every counter to v.
func (a *Array) Fill(v uint8) {
	w := uint64(v&3) * fillUnit
	for i := range a.words {
		a.words[i] = w
	}
}

// Get returns counter i (0..3).
func (a *Array) Get(i uint64) uint8 {
	i &= a.mask
	return uint8(a.words[i>>5]>>((i&31)*2)) & 3
}

// Set stores v (0..3) into counter i.
func (a *Array) Set(i uint64, v uint8) {
	i &= a.mask
	sh := (i & 31) * 2
	a.words[i>>5] = a.words[i>>5]&^(3<<sh) | uint64(v&3)<<sh
}

// Taken reports the prediction of counter i (state >= 2).
func (a *Array) Taken(i uint64) bool { return a.Get(i) >= 2 }

// TakenBit returns the prediction of counter i as a 0/1 word — the high
// bit of the 2-bit state, extracted without the bool round-trip. The
// batch kernels combine these bits with bit-parallel majority/arbitration
// logic instead of per-branch if ladders.
func (a *Array) TakenBit(i uint64) uint64 {
	i &= a.mask
	return a.words[i>>5] >> ((i&31)*2 + 1) & 1
}

// SatStep returns the classical saturating transition of state c (0..3)
// toward the outcome: increment on taken, decrement on not taken,
// saturating at the rails. The comparisons compile to flag-setting
// arithmetic, not branches, which is what the batch kernel needs.
func SatStep(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

// Update applies the classical saturating transition toward the outcome:
// increment on taken, decrement on not taken, saturating at 0 and 3.
func (a *Array) Update(i uint64, taken bool) {
	a.UpdateN(i, taken)
}

// UpdateN is Update with the backing word located once and the state
// transition reported back: the word index and lane shift are resolved a
// single time (Update previously recomputed them in its Get half and
// again in its Set half), the transition is SatStep, and the returned
// old/next states let instrumented callers observe the counter without
// re-locating it. The scalar Update path and the batch kernels share
// this as their only Array write path.
func (a *Array) UpdateN(i uint64, taken bool) (old, next uint8) {
	i &= a.mask
	w := i >> 5
	sh := (i & 31) * 2
	word := a.words[w]
	old = uint8(word>>sh) & 3
	next = SatStep(old, taken)
	a.words[w] = word&^(3<<sh) | uint64(next)<<sh
	return old, next
}

// WordCount returns the number of backing 64-bit words — the exact length
// StateWords returns and LoadWords requires, so a restorer can validate a
// decoded snapshot's shape before touching any live state.
func (a *Array) WordCount() int { return len(a.words) }

// StateWords returns a copy of the packed counter words, for serialization
// (predictor.Snapshotter).
func (a *Array) StateWords() []uint64 {
	out := make([]uint64, len(a.words))
	copy(out, a.words)
	return out
}

// LoadWords replaces the counter state with ws, which must have exactly
// WordCount words. The array is untouched on error.
func (a *Array) LoadWords(ws []uint64) error {
	if len(ws) != len(a.words) {
		return fmt.Errorf("counter: state has %d words, array needs %d", len(ws), len(a.words))
	}
	copy(a.words, ws)
	return nil
}

// indexMask returns the index mask for an array of n entries: n-1 when n
// is a power of two, so every access wraps branch-free; otherwise all
// ones, leaving the bounds check to the slice access. All predictor tables
// in this library are powers of two. The arrays store it at construction,
// so no access re-derives it.
func indexMask(n uint64) uint64 {
	if bitutil.IsPow2(n) {
		return n - 1
	}
	return ^uint64(0)
}

// BitArray is a packed array of single bits.
type BitArray struct {
	words   []uint64
	entries uint64
	mask    uint64 // see indexMask
}

// NewBitArray returns a BitArray of n zero bits.
func NewBitArray(n int) *BitArray {
	if n <= 0 {
		panic(fmt.Sprintf("counter: NewBitArray with n=%d", n))
	}
	return &BitArray{words: make([]uint64, (n+63)/64), entries: uint64(n), mask: indexMask(uint64(n))}
}

// Len returns the number of bits.
func (b *BitArray) Len() int { return int(b.entries) }

// Get returns bit i.
func (b *BitArray) Get(i uint64) bool {
	i &= b.mask
	return b.words[i>>6]>>(i&63)&1 == 1
}

// Bit returns bit i as a 0/1 word, for bit-parallel combines that want
// to stay out of bool-land.
func (b *BitArray) Bit(i uint64) uint64 {
	i &= b.mask
	return b.words[i>>6] >> (i & 63) & 1
}

// Set stores v into bit i.
func (b *BitArray) Set(i uint64, v bool) {
	i &= b.mask
	if v {
		b.words[i>>6] |= 1 << (i & 63)
	} else {
		b.words[i>>6] &^= 1 << (i & 63)
	}
}

// WordCount returns the number of backing 64-bit words (see Array.WordCount).
func (b *BitArray) WordCount() int { return len(b.words) }

// StateWords returns a copy of the packed bits, for serialization.
func (b *BitArray) StateWords() []uint64 {
	out := make([]uint64, len(b.words))
	copy(out, b.words)
	return out
}

// LoadWords replaces the bit state with ws, which must have exactly
// WordCount words. The array is untouched on error.
func (b *BitArray) LoadWords(ws []uint64) error {
	if len(ws) != len(b.words) {
		return fmt.Errorf("counter: state has %d words, bit array needs %d", len(ws), len(b.words))
	}
	copy(b.words, ws)
	return nil
}

// Split is a 2-bit counter bank stored as separate prediction and hysteresis
// bit arrays. predEntries and hystEntries must be powers of two with
// hystEntries <= predEntries; when hystEntries < predEntries the hysteresis
// entry for prediction index i is i with its top bits dropped, exactly the
// EV8 sharing scheme ("indexed using the same index function, except the
// most significant bit", §4.4).
//
// Split-encoding of the classical counter:
//
//	state            pred  hyst(strong)
//	strong not-taken  0     1
//	weak   not-taken  0     0     <- initial state (all zeros)
//	weak   taken      1     0
//	strong taken      1     1
type Split struct {
	pred     *BitArray
	hyst     *BitArray
	hystMask uint64

	// Write-traffic counters, the currency of the §4.3 argument: under
	// partial update a correct prediction costs at most one hysteresis
	// write and no prediction-array access beyond the fetch-time read.
	predWrites int64
	hystWrites int64
	hystReads  int64
}

// NewSplit builds a Split bank. It returns an error if the sizes are not
// powers of two or hystEntries exceeds predEntries.
func NewSplit(predEntries, hystEntries int) (*Split, error) {
	if predEntries <= 0 || !bitutil.IsPow2(uint64(predEntries)) {
		return nil, fmt.Errorf("counter: prediction entries %d not a positive power of two", predEntries)
	}
	if hystEntries <= 0 || !bitutil.IsPow2(uint64(hystEntries)) {
		return nil, fmt.Errorf("counter: hysteresis entries %d not a positive power of two", hystEntries)
	}
	if hystEntries > predEntries {
		return nil, fmt.Errorf("counter: hysteresis entries %d exceed prediction entries %d", hystEntries, predEntries)
	}
	return &Split{
		pred:     NewBitArray(predEntries),
		hyst:     NewBitArray(hystEntries),
		hystMask: uint64(hystEntries) - 1,
	}, nil
}

// MustSplit is NewSplit but panics on error; for static configurations.
func MustSplit(predEntries, hystEntries int) *Split {
	s, err := NewSplit(predEntries, hystEntries)
	if err != nil {
		panic(err)
	}
	return s
}

// PredEntries returns the size of the prediction array.
func (s *Split) PredEntries() int { return s.pred.Len() }

// HystEntries returns the size of the hysteresis array.
func (s *Split) HystEntries() int { return s.hyst.Len() }

// SizeBits returns the total storage in bits (prediction + hysteresis).
func (s *Split) SizeBits() int { return s.pred.Len() + s.hyst.Len() }

// Pred returns the prediction bit for index i (true = taken). This is the
// only read a correct prediction ever needs (§4.3).
func (s *Split) Pred(i uint64) bool { return s.pred.Get(i) }

// PredBit returns the prediction bit for index i as a 0/1 word — the
// read the batch kernel's bit-parallel majority-vote and meta-arbitration
// combine consumes.
func (s *Split) PredBit(i uint64) uint64 { return s.pred.Bit(i) }

// Strong reports whether the shared hysteresis bit for index i is set.
func (s *Split) Strong(i uint64) bool { return s.hyst.Get(i & s.hystMask) }

// Bits returns index i's prediction bit and its shared hysteresis
// (strength) bit as 0/1 words, one read of each array — the whole 2-bit
// state in the split encoding, for callers that combine counter states
// with bit-parallel logic instead of State's switch.
func (s *Split) Bits(i uint64) (pred, strong uint64) {
	return s.pred.Bit(i), s.hyst.Bit(i & s.hystMask)
}

// State returns the classical 2-bit state (0..3) for index i, for tests.
func (s *Split) State(i uint64) uint8 {
	p, h := s.Pred(i), s.Strong(i)
	switch {
	case !p && h:
		return StrongNotTaken
	case !p && !h:
		return WeakNotTaken
	case p && !h:
		return WeakTaken
	default:
		return StrongTaken
	}
}

// SetState forces index i to the classical state v (0..3), for tests and
// initialization.
func (s *Split) SetState(i uint64, v uint8) {
	switch v & 3 {
	case StrongNotTaken:
		s.pred.Set(i, false)
		s.hyst.Set(i&s.hystMask, true)
	case WeakNotTaken:
		s.pred.Set(i, false)
		s.hyst.Set(i&s.hystMask, false)
	case WeakTaken:
		s.pred.Set(i, true)
		s.hyst.Set(i&s.hystMask, false)
	default:
		s.pred.Set(i, true)
		s.hyst.Set(i&s.hystMask, true)
	}
}

// Strengthen records a correct prediction in direction taken: the prediction
// bit is left untouched (and in hardware, unread); the hysteresis bit is set.
// Callers must only invoke Strengthen when Pred(i) == taken, which is the
// partial-update contract; a mismatch would corrupt the counter, so it
// panics in that case.
func (s *Split) Strengthen(i uint64, taken bool) {
	if s.pred.Get(i) != taken {
		panic("counter: Strengthen called with direction opposite to the prediction bit")
	}
	s.hystWrites++
	s.hyst.Set(i&s.hystMask, true)
}

// Update applies the full saturating-counter transition toward the outcome.
// This is the operation a misprediction triggers ("update all banks"): it
// reads the hysteresis bit and may write both arrays.
func (s *Split) Update(i uint64, taken bool) {
	p := s.pred.Get(i)
	if p == taken {
		// Stepping toward the current direction: strengthen.
		s.hystWrites++
		s.hyst.Set(i&s.hystMask, true)
		return
	}
	s.hystReads++
	if s.hyst.Get(i & s.hystMask) {
		// Strong counter weakens but keeps its direction.
		s.hystWrites++
		s.hyst.Set(i&s.hystMask, false)
		return
	}
	// Weak counter flips direction and stays weak.
	s.predWrites++
	s.pred.Set(i, !p)
}

// Traffic reports the array traffic since construction:
// prediction-array writes, hysteresis-array writes, and hysteresis-array
// reads (a hysteresis read happens only on the misprediction path, §4.3).
func (s *Split) Traffic() (predWrites, hystWrites, hystReads int64) {
	return s.predWrites, s.hystWrites, s.hystReads
}

// PredArray exposes the prediction bit array for serialization.
func (s *Split) PredArray() *BitArray { return s.pred }

// HystArray exposes the hysteresis bit array for serialization.
func (s *Split) HystArray() *BitArray { return s.hyst }

// LoadTraffic restores the write-traffic counters, which are mutable
// predictor state (the ablation harness and stats.Instrumented report
// them), so a restored bank keeps reporting seamlessly.
func (s *Split) LoadTraffic(predWrites, hystWrites, hystReads int64) {
	s.predWrites, s.hystWrites, s.hystReads = predWrites, hystWrites, hystReads
}
