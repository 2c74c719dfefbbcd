// Package trace defines the branch-trace substrate of the library: the
// dynamic conditional-branch record, streaming sources, a compact binary
// on-disk format, and stream statistics (the Table 2 metrics of the paper).
//
// The paper's evaluation uses ATOM-collected SPECINT95 traces; this library
// generates statistically calibrated synthetic traces (package workload)
// but treats them through the same interfaces a file-based trace would use,
// so real traces can be dropped in by implementing Source or by converting
// to the on-disk format of this package (see Writer/Reader in file.go).
package trace

import (
	"io"
	"slices"
)

// Kind classifies a control-transfer record. Only Cond records are
// predicted by the conditional branch predictors; the other kinds exist
// because fetch blocks end on ANY taken control-flow instruction (§2 of the
// paper), so the front end needs to see them to form blocks correctly.
type Kind uint8

const (
	// Cond is a conditional branch.
	Cond Kind = iota
	// Jump is an unconditional direct jump (always taken).
	Jump
	// Call is a subroutine call (always taken).
	Call
	// Return is a subroutine return (always taken).
	Return

	numKinds
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case Cond:
		return "cond"
	case Jump:
		return "jump"
	case Call:
		return "call"
	case Return:
		return "return"
	default:
		return "invalid"
	}
}

// Branch is one dynamic control-transfer record in program order.
type Branch struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the address control flows to when the branch is taken.
	Target uint64
	// Taken is the architectural outcome. Always true for non-Cond kinds.
	Taken bool
	// Gap is the number of non-control-transfer instructions executed
	// since the previous record (exclusive). Instruction counts — and
	// therefore the misp/KI metric and fetch-block formation — derive
	// from Gap. The address invariant the front end relies on is
	// PC == previous record's NextPC + Gap*InstrBytes.
	Gap int
	// Kind classifies the transfer; the zero value is Cond.
	Kind Kind
	// Thread is the hardware-thread id for SMT workloads; 0 otherwise.
	Thread int
}

// FallThrough returns the address of the instruction after the branch,
// which is where control flows when the branch is not taken.
func (b Branch) FallThrough() uint64 { return b.PC + InstrBytes }

// NextPC returns the address control flows to given the outcome.
func (b Branch) NextPC() uint64 {
	if b.Taken {
		return b.Target
	}
	return b.FallThrough()
}

// InstrBytes is the instruction size. Alpha instructions are 4 bytes; all
// synthetic PCs are 4-byte aligned and fetch blocks are 32-byte aligned
// groups of 8 instructions.
const InstrBytes = 4

// Source is a stream of dynamic branches, read in batches the way an
// io.Reader is read in bytes. NextBatch fills dst from the front and
// returns the number of records written (0 <= n <= len(dst)):
//
//   - When len(dst) > 0, a call returns n > 0 or an error, never 0 and
//     nil; n may be short of len(dst) mid-stream.
//   - io.EOF means the stream ended cleanly; records returned with it
//     are valid and final.
//   - Any other error means the stream failed (a corrupt trace, a
//     canceled run): the records returned with it precede the failure
//     and are valid, and every later call returns the same error with
//     n == 0. Consumers must report it: a failed stream must never
//     pass for a short but valid one.
type Source interface {
	NextBatch(dst []Branch) (int, error)
}

// Slice is an in-memory trace.
type Slice struct {
	Records []Branch
	pos     int
}

// NewSlice wraps records in a source.
func NewSlice(records []Branch) *Slice { return &Slice{Records: records} }

// NextBatch implements Source by block-copying from the record slice.
func (s *Slice) NextBatch(dst []Branch) (int, error) {
	if s.pos >= len(s.Records) {
		return 0, io.EOF
	}
	n := copy(dst, s.Records[s.pos:])
	s.pos += n
	return n, nil
}

// Collect drains a source into memory, up to max records (max <= 0
// means no limit), and returns the records with the stream's failure, or
// nil for a clean end. It never reads past the max-th record, so src
// stays positioned right after it.
func Collect(src Source, max int) ([]Branch, error) {
	var out []Branch
	for max <= 0 || len(out) < max {
		want := collectChunk
		if max > 0 {
			want = min(want, max-len(out))
		}
		out = slices.Grow(out, want)
		n, err := src.NextBatch(out[len(out) : len(out)+want])
		out = out[:len(out)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// collectChunk is the most records Collect asks a source for at once.
const collectChunk = 1024

// ForceThread wraps a source, rewriting every record's thread id — the
// "shared history" SMT model of §3: all threads update one history
// context, so cross-thread interference pollutes the history registers as
// well as the tables.
type ForceThread struct {
	Src    Source
	Thread int
}

// NextBatch implements Source, rewriting the thread id of the records
// the wrapped source returns.
func (f *ForceThread) NextBatch(dst []Branch) (int, error) {
	n, err := f.Src.NextBatch(dst)
	for i := range dst[:n] {
		dst[i].Thread = f.Thread
	}
	return n, err
}
