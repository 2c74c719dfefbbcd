package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	err     error // sticky first decode error
	// Version-2 state.
	chunk  []byte // current verified chunk payload
	pos    int    // decode offset into chunk
	n      int64  // records decoded so far
	instrs int64  // instructions decoded so far
	done   bool   // footer verified; stream is complete
	crcBuf [4]byte
}

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
		return r.readV1()
	}
	for r.pos >= len(r.chunk) {
		if err := r.nextChunk(); err != nil {
			return Branch{}, err
		}
	}
	return r.readChunked()
}

// readV1 decodes one record from the bare version-1 stream.
func (r *Reader) readV1() (Branch, error) {
	flags, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Branch{}, io.EOF
		}
		return Branch{}, err
	}
	dpc, err := r.varint()
	if err != nil {
		return Branch{}, err
	}
	gap, err := r.uvarint()
	if err != nil {
		return Branch{}, err
	}
	var dt int64
	hasTarget := flags&flagHasTarget != 0
	if hasTarget {
		if dt, err = r.varint(); err != nil {
			return Branch{}, err
		}
	}
	var th uint64
	if flags&flagThread != 0 {
		if th, err = r.uvarint(); err != nil {
			return Branch{}, err
		}
	}
	return r.assemble(flags, dpc, gap, hasTarget, dt, th)
}

// readChunked decodes one record from the current verified chunk. A
// record that runs off the end of its chunk is corruption: the writer
// never splits a record across chunks.
func (r *Reader) readChunked() (Branch, error) {
	buf := r.chunk[r.pos:]
	flags := buf[0]
	i := 1
	dpc, n := binary.Varint(buf[i:])
	if n <= 0 {
		return Branch{}, fmt.Errorf("%w: corrupt record delta-PC", ErrBadFormat)
	}
	i += n
	gap, n := binary.Uvarint(buf[i:])
	if n <= 0 {
		return Branch{}, fmt.Errorf("%w: corrupt record gap", ErrBadFormat)
	}
	i += n
	var dt int64
	hasTarget := flags&flagHasTarget != 0
	if hasTarget {
		dt, n = binary.Varint(buf[i:])
		if n <= 0 {
			return Branch{}, fmt.Errorf("%w: corrupt record target", ErrBadFormat)
		}
		i += n
	}
	var th uint64
	if flags&flagThread != 0 {
		th, n = binary.Uvarint(buf[i:])
		if n <= 0 {
			return Branch{}, fmt.Errorf("%w: corrupt record thread", ErrBadFormat)
		}
		i += n
	}
	b, err := r.assemble(flags, dpc, gap, hasTarget, dt, th)
	if err != nil {
		return Branch{}, err
	}
	r.pos += i
	return b, nil
}

// assemble builds a Branch from decoded fields, bounding the open-ended
// ones so corrupt values surface as errors instead of wrapping into
// negative ints.
func (r *Reader) assemble(flags byte, dpc int64, gap uint64, hasTarget bool, dt int64, th uint64) (Branch, error) {
	if gap > maxGap {
		return Branch{}, fmt.Errorf("%w: gap %d out of range", ErrBadFormat, gap)
	}
	if th > maxThread {
		return Branch{}, fmt.Errorf("%w: thread %d out of range", ErrBadFormat, th)
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
	return b, nil
}

// nextChunk reads and verifies the next chunk frame. It returns io.EOF
// only after a valid footer; raw EOF at a chunk boundary means the footer
// (and possibly more) was truncated away.
func (r *Reader) nextChunk() error {
	if _, err := r.r.Peek(1); err != nil {
		if err == io.EOF {
			return fmt.Errorf("%w: missing footer (stream truncated)", ErrBadFormat)
		}
		return err
	}
	length, err := r.uvarint()
	if err != nil {
		return err
	}
	if length == 0 {
		return r.readFooter()
	}
	if length > maxChunkLen {
		return fmt.Errorf("%w: chunk length %d exceeds limit", ErrBadFormat, length)
	}
	if _, err := io.ReadFull(r.r, r.crcBuf[:]); err != nil {
		return r.truncated(err)
	}
	want := binary.LittleEndian.Uint32(r.crcBuf[:])
	if cap(r.chunk) < int(length) {
		r.chunk = make([]byte, length)
	} else {
		r.chunk = r.chunk[:length]
	}
	if _, err := io.ReadFull(r.r, r.chunk); err != nil {
		return r.truncated(err)
	}
	if got := crc32.ChecksumIEEE(r.chunk); got != want {
		return fmt.Errorf("%w: chunk CRC mismatch (got %08x, want %08x)", ErrBadFormat, got, want)
	}
	r.pos = 0
	return nil
}

// readFooter verifies the footer counts against the decoded stream and
// requires EOF immediately after. On success it returns io.EOF.
func (r *Reader) readFooter() error {
	if _, err := io.ReadFull(r.r, r.crcBuf[:]); err != nil {
		return r.truncated(err)
	}
	want := binary.LittleEndian.Uint32(r.crcBuf[:]) ^ footerCRCMask
	var counts [2 * binary.MaxVarintLen64]byte
	cn := 0
	read := func() (uint64, error) {
		var x uint64
		var s uint
		for i := 0; i < binary.MaxVarintLen64; i++ {
			c, err := r.r.ReadByte()
			if err != nil {
				return 0, r.truncated(err)
			}
			counts[cn] = c
			cn++
			if c < 0x80 {
				if i == binary.MaxVarintLen64-1 && c > 1 {
					return 0, fmt.Errorf("%w: footer varint overflow", ErrBadFormat)
				}
				return x | uint64(c)<<s, nil
			}
			x |= uint64(c&0x7f) << s
			s += 7
		}
		return 0, fmt.Errorf("%w: footer varint overflow", ErrBadFormat)
	}
	nrec, err := read()
	if err != nil {
		return err
	}
	ninstr, err := read()
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(counts[:cn]); got != want {
		return fmt.Errorf("%w: footer CRC mismatch (got %08x, want %08x)", ErrBadFormat, got, want)
	}
	if int64(nrec) != r.n || int64(ninstr) != r.instrs {
		return fmt.Errorf("%w: footer counts (%d records, %d instructions) do not match stream (%d, %d)",
			ErrBadFormat, nrec, ninstr, r.n, r.instrs)
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: trailing data after footer", ErrBadFormat)
	}
	r.done = true
	return io.EOF
}

// uvarint reads a bounded unsigned varint from the stream. Overflow and
// truncation both surface as ErrBadFormat; real I/O errors pass through.
func (r *Reader) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c, err := r.r.ReadByte()
		if err != nil {
			return 0, r.truncated(err)
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("%w: varint overflow", ErrBadFormat)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint overflow", ErrBadFormat)
}

// varint reads a bounded zigzag-encoded signed varint.
func (r *Reader) varint() (int64, error) {
	ux, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// truncated converts an end-of-stream condition inside a structure into a
// typed format error; other errors (real I/O failures) pass through.
func (r *Reader) truncated(err error) error {
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
