package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Binary trace format ("EV8T"), designed for compactness and streaming:
//
//	header:  magic "EV8T" | version byte (1 or 2)
//	record:  flags byte | zigzag-varint ΔPC | varint gap
//	         [zigzag-varint Δtarget]   if flagHasTarget
//	         [varint thread]           if flagThread
//
// ΔPC is relative to the previous record's PC; Δtarget is relative to the
// record's own PC. Taken branches almost always carry a target; not-taken
// records may omit it (flagHasTarget clear ⇒ Target = fall-through).
// Deltas make typical records 3–5 bytes. The format is endianness-free
// except for the fixed-width CRC words (little-endian).
//
// Version 1 is a bare record stream: truncation is indistinguishable from
// a clean end of file at any record boundary, and bit-flips decode as
// (different) records. Version 2 adds integrity checking so bad input
// cannot be mistaken for good input:
//
//	chunk:   uvarint payloadLen (> 0) | crc32(payload) LE | payload
//	footer:  0x00 | crc32(counts) LE | uvarint recordCount | uvarint instrCount
//
// Records never span a chunk boundary; the ΔPC chain runs uninterrupted
// across chunks. The zero payloadLen marks the footer, whose record and
// instruction counts must match the decoded stream exactly and which must
// be followed by EOF. A missing footer (truncation at a record or chunk
// boundary), a short chunk, a flipped payload bit, trailing garbage, or a
// count mismatch all surface as ErrBadFormat-wrapped errors at read time.
// Readers accept both versions; writers default to version 2.

const (
	magic    = "EV8T"
	version1 = 1
	version2 = 2

	// DefaultVersion is the format new writers produce.
	DefaultVersion = version2

	flagTaken     = 1 << 0
	flagHasTarget = 1 << 1
	flagThread    = 1 << 2
	kindShift     = 3
	kindMask      = 3 << kindShift

	// chunkTarget is the payload size at which the v2 writer seals a
	// chunk. Small enough to bound corruption blast radius and reader
	// buffering, large enough that the 5–7 byte frame is noise.
	chunkTarget = 32 * 1024
	// maxChunkLen bounds the chunk length a reader will accept, so a
	// corrupted length varint cannot demand an enormous allocation.
	maxChunkLen = 1 << 20

	// maxGap and maxThread bound varint-decoded fields: values beyond
	// these cannot come from a valid writer (which rejects negatives and
	// would need petabyte-scale programs to exceed them), so the reader
	// reports corruption instead of wrapping them into negative ints.
	maxGap    = 1 << 40
	maxThread = 1 << 24

	// footerCRCMask domain-separates the footer CRC from chunk CRCs.
	// Without it, a corrupted footer marker (0x00 flipped to a small
	// chunk length equal to the size of the count varints) frames the
	// footer as a chunk whose stored CRC — computed over exactly those
	// count bytes — verifies, fabricating a record from the counts.
	// The fault-injection suite catches this; masking the stored value
	// makes the two CRC domains mutually unverifiable.
	footerCRCMask = 0x8f007e72
)

// ErrBadFormat is returned when a stream does not parse as a trace file:
// bad magic or version, a truncated record or chunk, a CRC mismatch, a
// footer count mismatch, or an out-of-range field. All decode-level
// failures wrap it, so callers can errors.Is against one sentinel.
var ErrBadFormat = errors.New("trace: bad file format")

// ErrBadRecord is returned by Writer.Write for records that cannot be
// encoded faithfully: negative Gap or Thread, or an invalid Kind. The
// record is rejected and the stream is left untouched.
var ErrBadRecord = errors.New("trace: invalid record")

// Writer encodes branches to an output stream.
//
// After an I/O error the writer is sticky: every subsequent Write and
// Flush returns the same error, and no partial state advances, so a
// transient failure cannot desynchronize the ΔPC chain or the counts.
type Writer struct {
	w           *bufio.Writer
	version     byte
	chunkTarget int
	prevPC      uint64
	n           int64
	instrs      int64
	buf         []byte // per-record scratch
	chunk       []byte // v2: pending chunk payload
	frame       []byte // v2: chunk/footer framing scratch
	err         error  // sticky I/O error
	final       bool   // v2: footer written; no further records
}

// NewWriter writes a version-2 header and returns a Writer. Call Flush
// when done: for version 2 it seals the final chunk and writes the
// integrity footer.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterVersion(w, DefaultVersion)
}

// NewWriterVersion writes the header for the given format version (1 or
// 2) and returns a Writer. Version 1 is the legacy bare record stream,
// kept for compatibility; version 2 adds per-chunk CRCs and a counted
// footer.
func NewWriterVersion(w io.Writer, version int) (*Writer, error) {
	if version != version1 && version != version2 {
		return nil, fmt.Errorf("trace: unsupported format version %d", version)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(version)); err != nil {
		return nil, err
	}
	return &Writer{
		w:           bw,
		version:     byte(version),
		chunkTarget: chunkTarget,
		buf:         make([]byte, 0, 4*binary.MaxVarintLen64+1),
	}, nil
}

// SetChunkTarget overrides the version-2 chunk payload size in bytes
// (default 32 KiB). Smaller chunks bound the corruption blast radius and
// detection latency at slightly higher framing overhead; the
// fault-injection suite uses tiny chunks to exercise boundary handling.
// Values < 1 are ignored; no effect on version-1 streams.
func (w *Writer) SetChunkTarget(n int) {
	if n >= 1 {
		w.chunkTarget = n
	}
}

// Version returns the format version the writer produces.
func (w *Writer) Version() int { return int(w.version) }

// Write encodes one branch record. Invalid records (negative Gap or
// Thread, out-of-range Kind) are rejected with ErrBadRecord without
// touching the stream; I/O errors are sticky.
func (w *Writer) Write(b Branch) error {
	if w.err != nil {
		return w.err
	}
	if w.final {
		return fmt.Errorf("trace: Write after Flush finalized the stream")
	}
	if b.Kind >= numKinds {
		return fmt.Errorf("%w: kind %d", ErrBadRecord, b.Kind)
	}
	if b.Gap < 0 {
		return fmt.Errorf("%w: negative gap %d", ErrBadRecord, b.Gap)
	}
	if b.Thread < 0 {
		return fmt.Errorf("%w: negative thread %d", ErrBadRecord, b.Thread)
	}
	// Seal a full chunk before accepting the incoming record: if the
	// flush fails, the error is reported against a record the writer
	// has NOT counted, so Count/Instructions and the ΔPC chain always
	// describe exactly the records accepted so far.
	if w.version >= version2 && len(w.chunk) >= w.chunkTarget {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	w.buf = w.buf[:0]
	flags := byte(0)
	if b.Taken {
		flags |= flagTaken
	}
	hasTarget := b.Target != b.FallThrough()
	if hasTarget {
		flags |= flagHasTarget
	}
	if b.Thread != 0 {
		flags |= flagThread
	}
	flags |= byte(b.Kind) << kindShift
	w.buf = append(w.buf, flags)
	w.buf = binary.AppendVarint(w.buf, int64(b.PC)-int64(w.prevPC))
	w.buf = binary.AppendUvarint(w.buf, uint64(b.Gap))
	if hasTarget {
		w.buf = binary.AppendVarint(w.buf, int64(b.Target)-int64(b.PC))
	}
	if b.Thread != 0 {
		w.buf = binary.AppendUvarint(w.buf, uint64(b.Thread))
	}
	if w.version == version1 {
		if _, err := w.w.Write(w.buf); err != nil {
			w.err = err
			return err
		}
	} else {
		w.chunk = append(w.chunk, w.buf...)
	}
	// State advances only after the record is safely encoded, so a failed
	// Write leaves the ΔPC chain and the counts consistent.
	w.prevPC = b.PC
	w.n++
	w.instrs += int64(b.Gap) + 1
	return nil
}

// flushChunk frames and writes the pending chunk payload.
func (w *Writer) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	w.frame = binary.AppendUvarint(w.frame[:0], uint64(len(w.chunk)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(w.chunk))
	if _, err := w.w.Write(w.frame); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.chunk); err != nil {
		w.err = err
		return err
	}
	w.chunk = w.chunk[:0]
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Instructions returns the total instructions (Gap+1 per record) written
// so far — the value the version-2 footer records.
func (w *Writer) Instructions() int64 { return w.instrs }

// Flush completes the stream and flushes buffered output. It must be
// called before closing the underlying file. For version 2 it seals the
// final chunk and writes the footer; the stream accepts no further
// records afterwards.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.version >= version2 && !w.final {
		w.final = true
		if err := w.flushChunk(); err != nil {
			return err
		}
		counts := binary.AppendUvarint(w.buf[:0], uint64(w.n))
		counts = binary.AppendUvarint(counts, uint64(w.instrs))
		w.frame = append(w.frame[:0], 0)
		w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(counts)^footerCRCMask)
		w.frame = append(w.frame, counts...)
		if _, err := w.w.Write(w.frame); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteAll streams an entire source to w and returns the record count.
// A source failure is returned as is, before the stream is finalized.
func WriteAll(w io.Writer, src Source) (int64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	buf := make([]Branch, collectChunk)
	for {
		n, err := src.NextBatch(buf)
		for _, b := range buf[:n] {
			if err := tw.Write(b); err != nil {
				return tw.Count(), err
			}
		}
		if err == io.EOF {
			return tw.Count(), tw.Flush()
		}
		if err != nil {
			return tw.Count(), err
		}
	}
}

// Reader decodes branches from an input stream produced by Writer. It
// accepts both format versions; for version 2 every chunk CRC is checked
// as it is read and the footer counts are verified at end of stream, so
// NextBatch returns io.EOF only for a stream proven complete and intact.
type Reader struct {
	r       *bufio.Reader
	version byte
	prevPC  uint64
	n       int64 // records decoded so far
	instrs  int64 // instructions decoded so far
	err     error // sticky first decode error
	// Version-2 state.
	chunk []byte // current verified chunk payload
	pos   int    // decode offset into chunk
	done  bool   // footer verified; stream is complete
}

// Peek sizes: the longest record and the longest version-2 frame head
// (a footer's marker, CRC word and counts), each plus one byte so that
// ten continuation bytes read as overflow. A varint that runs off a
// peek therefore always means the peek was cut short.
const (
	recordPeek = 1 + 4*binary.MaxVarintLen64 + 1
	framePeek  = 3*binary.MaxVarintLen64 + 4 + 1
)

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: missing magic", ErrBadFormat)
	}
	v := head[len(magic)]
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return &Reader{r: br, version: v}, nil
}

// Version returns the format version of the stream being read.
func (r *Reader) Version() int { return int(r.version) }

// read decodes the next record. It returns io.EOF at a clean end of
// stream — for version 2, only after the footer has been verified.
func (r *Reader) read() (Branch, error) {
	if r.done {
		return Branch{}, io.EOF
	}
	if r.version == version1 {
		buf, err := r.r.Peek(recordPeek)
		if len(buf) == 0 {
			return Branch{}, err // io.EOF at a record boundary, or an I/O error
		}
		b, n, err := r.decode(buf, err)
		if err == nil {
			_, _ = r.r.Discard(n) // peeked bytes are buffered: cannot fail
		}
		return b, err
	}
	for r.pos >= len(r.chunk) {
		if err := r.nextChunk(); err != nil {
			return Branch{}, err
		}
	}
	// A record that runs off the end of its chunk is corruption: the
	// writer never splits a record across chunks.
	b, n, err := r.decode(r.chunk[r.pos:], nil)
	r.pos += n
	return b, err
}

// decode decodes the record at the start of buf and returns it with the
// number of bytes it used. Both versions feed it: version 2 a verified
// chunk with a nil cut, version 1 a peek of at most one record with cut,
// the error that cut the peek short. Open-ended fields are bounded, so
// corrupt values surface as errors instead of wrapping into negative
// ints.
func (r *Reader) decode(buf []byte, cut error) (Branch, int, error) {
	n := 1
	var err error
	field := func(what string) uint64 {
		if err != nil {
			return 0
		}
		x, k, ferr := uvarint(buf[n:], cut, what)
		n, err = n+k, ferr
		return x
	}
	flags := buf[0]
	dpc := unzigzag(field("corrupt record delta-PC"))
	gap := field("corrupt record gap")
	hasTarget := flags&flagHasTarget != 0
	var dt int64
	if hasTarget {
		dt = unzigzag(field("corrupt record target"))
	}
	var th uint64
	if flags&flagThread != 0 {
		th = field("corrupt record thread")
	}
	switch {
	case err != nil:
		return Branch{}, 0, err
	case gap > maxGap:
		return Branch{}, 0, fmt.Errorf("%w: gap %d out of range", ErrBadFormat, gap)
	case th > maxThread:
		return Branch{}, 0, fmt.Errorf("%w: thread %d out of range", ErrBadFormat, th)
	}
	b := Branch{
		PC:     uint64(int64(r.prevPC) + dpc),
		Taken:  flags&flagTaken != 0,
		Gap:    int(gap),
		Kind:   Kind(flags & kindMask >> kindShift),
		Thread: int(th),
	}
	if hasTarget {
		b.Target = uint64(int64(b.PC) + dt)
	} else {
		b.Target = b.FallThrough()
	}
	r.prevPC = b.PC
	r.n++
	r.instrs += int64(b.Gap) + 1
	return b, n, nil
}

// unzigzag undoes the signed mapping of binary.AppendVarint.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// uvarint parses the unsigned varint at the start of buf, the one varint
// reader of the decoder. A varint that runs off buf is truncation if
// cut, the error that cut buf short, is set; otherwise it is corruption,
// like an overflow, and the error says what.
func uvarint(buf []byte, cut error, what string) (uint64, int, error) {
	x, n := binary.Uvarint(buf)
	switch {
	case n == 0 && cut != nil:
		return 0, 0, truncated(cut)
	case n <= 0:
		return 0, 0, fmt.Errorf("%w: %s", ErrBadFormat, what)
	}
	return x, n, nil
}

// nextChunk reads and verifies the next chunk frame. It returns io.EOF
// only after a valid footer; raw EOF at a chunk boundary means the footer
// (and possibly more) was truncated away.
func (r *Reader) nextChunk() error {
	head, err := r.r.Peek(framePeek)
	if len(head) == 0 {
		if err == io.EOF {
			return fmt.Errorf("%w: missing footer (stream truncated)", ErrBadFormat)
		}
		return err
	}
	length, n, verr := uvarint(head, err, "varint overflow")
	switch {
	case verr != nil:
		return verr
	case length == 0:
		return r.footer(head[n:], err)
	case length > maxChunkLen:
		return fmt.Errorf("%w: chunk length %d exceeds limit", ErrBadFormat, length)
	case len(head) < n+4:
		return truncated(err)
	}
	want := binary.LittleEndian.Uint32(head[n:])
	_, _ = r.r.Discard(n + 4) // peeked bytes are buffered: cannot fail
	r.chunk = slices.Grow(r.chunk[:0], int(length))[:length]
	if _, err := io.ReadFull(r.r, r.chunk); err != nil {
		return truncated(err)
	}
	if got := crc32.ChecksumIEEE(r.chunk); got != want {
		return fmt.Errorf("%w: chunk CRC mismatch (got %08x, want %08x)", ErrBadFormat, got, want)
	}
	r.pos = 0
	return nil
}

// footer verifies the footer that follows the marker in head, a peek cut
// short by err, against the decoded stream. EOF must follow it at once.
// On success it returns io.EOF.
func (r *Reader) footer(head []byte, err error) error {
	if len(head) < 4 {
		return truncated(err)
	}
	want := binary.LittleEndian.Uint32(head) ^ footerCRCMask
	nrec, n1, verr := uvarint(head[4:], err, "footer varint overflow")
	if verr != nil {
		return verr
	}
	ninstr, n2, verr := uvarint(head[4+n1:], err, "footer varint overflow")
	if verr != nil {
		return verr
	}
	end := 4 + n1 + n2
	if got := crc32.ChecksumIEEE(head[4:end]); got != want {
		return fmt.Errorf("%w: footer CRC mismatch (got %08x, want %08x)", ErrBadFormat, got, want)
	}
	if int64(nrec) != r.n || int64(ninstr) != r.instrs {
		return fmt.Errorf("%w: footer counts (%d records, %d instructions) do not match stream (%d, %d)",
			ErrBadFormat, nrec, ninstr, r.n, r.instrs)
	}
	if len(head) > end {
		return fmt.Errorf("%w: trailing data after footer", ErrBadFormat)
	}
	if err != io.EOF {
		return err
	}
	r.done = true
	return io.EOF
}

// truncated converts an end-of-stream condition inside a structure into a
// typed format error; other errors (real I/O failures) pass through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated stream", ErrBadFormat)
	}
	return err
}

// NextBatch implements Source over the decoder. Decode errors are
// sticky: a read that hits corruption returns the intact prefix with the
// error, and every later call returns the error again.
func (r *Reader) NextBatch(dst []Branch) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for i := range dst {
		b, err := r.read()
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			return i, err
		}
		dst[i] = b
	}
	return len(dst), nil
}
