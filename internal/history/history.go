// Package history implements the branch-history machinery of the paper:
// the conventional global history register (ghist), the EV8
// block-compressed history with embedded path information (lghist, §5.1),
// the path queue of recent fetch-block addresses (§5.2), and the delay line
// that makes a history "three fetch blocks old" (§5.1).
//
// It also defines Info, the per-branch information vector handed to every
// predictor. The front end (package frontend) is responsible for filling
// Info according to a configurable information-vector mode, which is what
// lets a single predictor implementation run under the five different
// information vectors compared in Figure 7 of the paper.
//
// Bit conventions: in every history word, bit 0 is the most recent outcome
// (the paper's h0) and higher bits are older. Histories are at most 64 bits,
// which comfortably covers every length the paper uses (the longest is 27).
package history

import "fmt"

// MaxLen is the maximum history length maintained by a Register.
const MaxLen = 64

// Info is the information vector available to the predictor for one dynamic
// conditional branch. Which history variant Hist carries is decided by the
// front-end tracker configuration, not by the predictor.
type Info struct {
	// PC is the address of the branch instruction itself.
	PC uint64
	// BlockPC is the address of the fetch block containing the branch
	// (the paper's A). For the EV8 index functions, a2..a52 come from
	// here; bits 2,3,4 differ per-instruction and come from PC.
	BlockPC uint64
	// Hist is the (possibly compressed, possibly delayed) global history
	// selected by the tracker mode; bit 0 is the most recent bit.
	Hist uint64
	// Path holds the addresses of the three previous fetch blocks:
	// Path[0] is the most recent (the paper's Z), then Y, then X.
	Path [3]uint64
	// Thread identifies the hardware thread (SMT); single-threaded runs
	// use 0.
	Thread int
}

// Register is a global branch-history shift register of up to MaxLen bits.
// The zero value is an empty (all not-taken) history.
type Register struct {
	bits uint64
}

// Shift inserts a new most-recent bit (true = taken).
func (r *Register) Shift(taken bool) {
	r.bits <<= 1
	if taken {
		r.bits |= 1
	}
}

// Value returns the history word; bit 0 is the most recent outcome.
func (r *Register) Value() uint64 { return r.bits }

// Set forces the register contents (used by checkpoint/restore and tests).
func (r *Register) Set(v uint64) { r.bits = v }

// PathBit is the PC bit XORed into the lghist insertion (§5.1: "bit 4 in
// the PC address of this last branch").
const PathBit = 4

// LGHistBit computes the single history bit the EV8 inserts per fetch
// block: the outcome of the last conditional branch in the block, XORed
// (when includePath is set) with bit 4 of that branch's PC. The paper's
// rationale: optimized code has a non-uniform taken/not-taken mix, and the
// path bit re-uniformizes the distribution of history patterns.
func LGHistBit(lastCondPC uint64, lastCondTaken, includePath bool) bool {
	b := lastCondTaken
	if includePath {
		b = b != ((lastCondPC>>PathBit)&1 == 1)
	}
	return b
}

// PathQueue remembers the addresses of the most recent fetch blocks.
// Depth 3 reproduces the EV8 ("path information from the three last
// blocks", §5.2). The zero value is a queue of zero addresses.
type PathQueue struct {
	addrs [3]uint64
}

// Push records a new most-recent fetch-block address.
func (q *PathQueue) Push(addr uint64) {
	q.addrs[2] = q.addrs[1]
	q.addrs[1] = q.addrs[0]
	q.addrs[0] = addr
}

// Snapshot returns the queue contents, most recent first (Z, Y, X).
func (q *PathQueue) Snapshot() [3]uint64 { return q.addrs }

// Z returns the most recent previous block address.
func (q *PathQueue) Z() uint64 { return q.addrs[0] }

// Y returns the second most recent previous block address.
func (q *PathQueue) Y() uint64 { return q.addrs[1] }

// X returns the third most recent previous block address.
func (q *PathQueue) X() uint64 { return q.addrs[2] }

// Restore forces the queue contents, most recent first (the layout
// Snapshot returns). Used by checkpoint/restore.
func (q *PathQueue) Restore(addrs [3]uint64) { q.addrs = addrs }

// DelayLine yields values with a fixed delay of depth pushes: Old() returns
// the value pushed depth calls ago (or the initial zero value early on).
// With depth 3 and one push per fetch block it implements the "three fetch
// blocks old history" of §5.1: the history used to predict branches in
// block D excludes any outcome from blocks A, B, C (and D itself).
type DelayLine struct {
	buf   []uint64
	head  int
	depth int
}

// NewDelayLine returns a delay line of the given depth. Depth 0 is legal
// and means no delay (Old returns the last pushed value).
func NewDelayLine(depth int) *DelayLine {
	if depth < 0 {
		panic("history: negative delay depth")
	}
	return &DelayLine{buf: make([]uint64, depth+1), depth: depth}
}

// Push records the current value of the tracked quantity.
func (d *DelayLine) Push(v uint64) {
	d.buf[d.head] = v
	d.head++
	if d.head == len(d.buf) {
		d.head = 0
	}
}

// PushN records v n times: the n pushes of one unchanged value, in
// closed form once n fills the ring.
func (d *DelayLine) PushN(v uint64, n int64) {
	if n < int64(len(d.buf)) {
		for ; n > 0; n-- {
			d.Push(v)
		}
		return
	}
	for i := range d.buf {
		d.buf[i] = v
	}
	d.head = int((int64(d.head) + n) % int64(len(d.buf)))
}

// Old returns the value pushed depth calls ago; before depth pushes have
// occurred it returns 0 (the hardware's cold history).
func (d *DelayLine) Old() uint64 {
	// The slot about to be overwritten by the next Push is exactly the
	// value depth pushes old.
	return d.buf[d.head]
}

// Depth returns the configured delay.
func (d *DelayLine) Depth() int { return d.depth }

// State returns a copy of the ring buffer and the head index, for
// serialization. The buffer has Depth()+1 slots.
func (d *DelayLine) State() ([]uint64, int) {
	buf := make([]uint64, len(d.buf))
	copy(buf, d.buf)
	return buf, d.head
}

// Restore replaces the ring state. buf must have Depth()+1 slots and head
// must index into it; the line is untouched on error.
func (d *DelayLine) Restore(buf []uint64, head int) error {
	if len(buf) != len(d.buf) {
		return fmt.Errorf("history: delay state has %d slots, line needs %d", len(buf), len(d.buf))
	}
	if head < 0 || head >= len(d.buf) {
		return fmt.Errorf("history: delay head %d out of range [0,%d)", head, len(d.buf))
	}
	copy(d.buf, buf)
	d.head = head
	return nil
}
