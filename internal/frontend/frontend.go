// Package frontend models the Alpha EV8 instruction-fetch front end at the
// level the branch-prediction experiments need (§2, §5 of the paper):
//
//   - fetch-block formation: a block is a run of consecutive instructions
//     ending at the end of an aligned 8-instruction block or on a taken
//     control-flow instruction (taken conditional branches, jumps, calls
//     and returns end blocks; not-taken conditional branches do not);
//   - the block-compressed history lghist: one bit inserted per fetch
//     block that contains at least one conditional branch — the outcome of
//     the block's last conditional branch, XORed with PC bit 4 of that
//     branch when path information is enabled (§5.1);
//   - history aging: the predictor sees an lghist that is DelayBlocks
//     fetch blocks old (three on the EV8, §5.1);
//   - the path queue: addresses of the three previous fetch blocks (§5.2).
//
// Tracker turns a trace.Branch stream into per-conditional-branch
// history.Info vectors under a configurable Mode, a chunk of records at a
// time (Walk) or one record at a time (Process), and logs the fetch blocks
// it completes (BlockLog). The five information
// vectors compared in Figure 7 are all Mode values (see the Mode*
// constructors).
package frontend

import (
	"errors"
	"fmt"

	"ev8pred/internal/history"
	"ev8pred/internal/trace"
)

// BlockBytes is the fetch-block span: 8 instructions of 4 bytes.
const BlockBytes = 8 * trace.InstrBytes

// Mode selects the information vector the tracker materializes in
// history.Info.Hist.
type Mode struct {
	// Compressed selects lghist; false selects the conventional
	// per-branch global history (ghist).
	Compressed bool
	// PathBit XORs PC bit 4 of the block's last conditional branch into
	// the lghist insertion (only meaningful with Compressed).
	PathBit bool
	// DelayBlocks ages the lghist by this many fetch blocks (0 or 3 in
	// the paper; only meaningful with Compressed — conventional ghist is
	// always immediate).
	DelayBlocks int
}

// The information vectors of Figure 7.

// ModeGhist is the conventional branch history ("ghist").
func ModeGhist() Mode { return Mode{} }

// ModeLghistNoPath is block-compressed history without path information
// ("lghist, no path").
func ModeLghistNoPath() Mode { return Mode{Compressed: true} }

// ModeLghist is block-compressed history with the path bit ("lghist+path").
func ModeLghist() Mode { return Mode{Compressed: true, PathBit: true} }

// ModeOldLghist is three-fetch-blocks-old lghist with the path bit
// ("3-old lghist").
func ModeOldLghist() Mode {
	return Mode{Compressed: true, PathBit: true, DelayBlocks: 3}
}

// ModeEV8 is the Alpha EV8 information vector: three-blocks-old lghist
// with path information, plus the path addresses of the three skipped
// blocks (always present in Info.Path; EV8's index functions consume
// them).
func ModeEV8() Mode { return ModeOldLghist() }

// ModeByName maps the CLI/API spelling of an information vector to its
// Mode. It covers the five vectors of Figure 7 and is the single lookup
// behind ev8sim's and ev8sweep's -mode flags and the serving layer's
// experiment specs (internal/serve), so every surface accepts the same
// names with the same error.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "ghist":
		return ModeGhist(), nil
	case "lghist":
		return ModeLghist(), nil
	case "lghist-nopath":
		return ModeLghistNoPath(), nil
	case "old-lghist":
		return ModeOldLghist(), nil
	case "ev8":
		return ModeEV8(), nil
	default:
		return Mode{}, fmt.Errorf("frontend: unknown mode %q (want ghist|lghist|lghist-nopath|old-lghist|ev8)", name)
	}
}

// String names the mode as in Figure 7.
func (m Mode) String() string {
	switch {
	case !m.Compressed:
		return "ghist"
	case !m.PathBit && m.DelayBlocks == 0:
		return "lghist,no path"
	case m.PathBit && m.DelayBlocks == 0:
		return "lghist+path"
	case m.PathBit && m.DelayBlocks > 0:
		return fmt.Sprintf("%d-old lghist", m.DelayBlocks)
	default:
		return fmt.Sprintf("lghist(delay=%d,path=%v)", m.DelayBlocks, m.PathBit)
	}
}

// ErrFlow reports a record whose gap does not start where its thread's
// previous record left the flow, breaking trace.Branch's address
// invariant (PC == previous NextPC + Gap*InstrBytes). Walk returns it
// wrapped with the thread id; a lenient tracker resynchronizes instead.
var ErrFlow = errors.New("frontend: record does not continue its thread's flow")

// Tracker consumes a single thread's record stream and yields the
// information vector for each conditional branch.
type Tracker struct {
	mode Mode

	ghist   history.Register
	lg      history.Register
	lgDelay history.DelayLine
	path    history.PathQueue

	flowPC     uint64
	blockStart uint64
	started    bool

	blockHasCond   bool
	blockCondCount int
	blockLastPC    uint64
	blockLastTaken bool

	blocks    int64
	lgBits    int64
	condSeen  int64
	resyncs   int64
	lenient   bool
	onBlock   func(Block)
	threadTag int
	// one is Process's log: one record's entries and mark.
	one BlockLog
}

// Block summarizes a completed fetch block (for observers such as the EV8
// bank-scheduling model and the line predictor).
type Block struct {
	// Addr is the address of the block's first instruction.
	Addr uint64
	// Next is the address the following block starts at.
	Next uint64
	// HasCond reports whether the block contained a conditional branch.
	HasCond bool
	// CondCount is the number of conditional branches in the block
	// (0..8); all of them are predicted in the block's single table
	// read (§6.1).
	CondCount int
	// LastCondPC and LastCondTaken describe the block's last conditional
	// branch when HasCond is set.
	LastCondPC    uint64
	LastCondTaken bool
}

// NewTracker returns a tracker for one thread under the given mode.
func NewTracker(mode Mode) *Tracker {
	if mode.DelayBlocks < 0 {
		panic("frontend: negative history delay")
	}
	return &Tracker{
		mode:    mode,
		lgDelay: *history.NewDelayLine(mode.DelayBlocks),
		one:     NewBlockLog(1),
	}
}

// SetThread tags emitted Info vectors with a thread id.
func (t *Tracker) SetThread(id int) { t.threadTag = id }

// SetLenient makes the tracker tolerate backwards flow discontinuities by
// resynchronizing (completing the in-progress block and restarting the
// flow) instead of failing with ErrFlow. This models a front end whose
// single history context is shared by interleaved threads — the §3
// "shared history" SMT configuration. Resyncs counts the discontinuities.
func (t *Tracker) SetLenient(v bool) { t.lenient = v }

// Resyncs returns the number of flow discontinuities absorbed in lenient
// mode.
func (t *Tracker) Resyncs() int64 { return t.resyncs }

// OnBlock registers an observer Process hands every completed fetch block
// to, in order, once the record is walked. Walk logs blocks instead.
func (t *Tracker) OnBlock(fn func(Block)) { t.onBlock = fn }

// Mode returns the tracker's information-vector mode.
func (t *Tracker) Mode() Mode { return t.mode }

// Blocks returns the number of completed fetch blocks.
func (t *Tracker) Blocks() int64 { return t.blocks }

// LghistBits returns the number of bits inserted into lghist so far.
func (t *Tracker) LghistBits() int64 { return t.lgBits }

// CondBranches returns the number of conditional branches processed.
func (t *Tracker) CondBranches() int64 { return t.condSeen }

// Reset restores the power-on state: a reset tracker serializes to the
// same bytes as a fresh one. Configuration (mode, lenient flag, thread
// tag, block observer) is kept.
func (t *Tracker) Reset() {
	t.ghist.Reset()
	t.lg.Reset()
	t.lgDelay.Reset()
	t.path.Reset()
	t.flowPC, t.blockStart, t.started = 0, 0, false
	t.blockHasCond = false
	t.blockCondCount = 0
	t.blockLastPC, t.blockLastTaken = 0, false
	t.blocks, t.lgBits, t.condSeen, t.resyncs = 0, 0, 0, 0
}

// Process advances the front end over one record: it is Walk over that
// record alone, with the record's blocks handed to the OnBlock observer.
// For conditional records it returns the information vector the predictor
// would have been handed (valid at prediction time, i.e. computed before
// the branch's own outcome affects any state) and true. It panics on a
// record that does not continue the flow (ErrFlow) outside lenient mode.
func (t *Tracker) Process(b trace.Branch) (history.Info, bool) {
	recs := [1]trace.Branch{b}
	var infos [1]history.Info
	t.one.Reset()
	if _, err := t.Walk(recs[:], infos[:], &t.one); err != nil {
		panic(err.Error())
	}
	if t.onBlock != nil {
		for i := range t.one.Entries {
			t.one.Entries[i].EachBlock(t.onBlock)
		}
	}
	return infos[0], len(t.one.Marks) == 1
}

// Walk advances the front end over recs, consecutive records of the
// tracker's thread. Each conditional branch among them gets the
// information vector Process would return, written to
// infos[len(log.Marks)] before log.Marks gains the branch's mark: the
// length of log.Entries once the branch's record is walked. Every fetch
// block the records complete is appended to log.Entries, a straight-line
// run of empty blocks as one entry, so each record adds at most
// RunsPerRecord entries whatever its gap. The log must have room for
// len(recs) records (NewBlockLog) and infos for len(log.Marks)+len(recs)
// vectors; neither grows.
//
// Walk returns the number of records walked: len(recs), or, outside
// lenient mode, the index of the first record that does not continue the
// flow, with an error wrapping ErrFlow; the records before it are walked.
func (t *Tracker) Walk(recs []trace.Branch, infos []history.Info, log *BlockLog) (int, error) {
	if cap(log.Entries)-len(log.Entries) < RunsPerRecord*len(recs) ||
		cap(log.Marks)-len(log.Marks) < len(recs) || len(infos) < len(log.Marks)+len(recs) {
		panic(fmt.Sprintf("frontend: Walk of %d records overruns the block log or the info buffer", len(recs)))
	}
	for i := range recs {
		b := &recs[i]
		start := b.PC - uint64(b.Gap)*trace.InstrBytes
		if !t.started {
			t.flowPC, t.blockStart, t.started = start, start, true
		}
		// Flow invariant: the record's gap instructions start exactly at
		// the current flow point.
		if start != t.flowPC {
			if !t.lenient {
				return i, fmt.Errorf("%w: thread %d: record PC %#x (gap %d) does not continue flow %#x",
					ErrFlow, t.threadTag, b.PC, b.Gap, t.flowPC)
			}
			// Thread switch (or other discontinuity): close the
			// in-progress block and restart the flow at the new stream
			// position.
			t.completeBlock(start, log)
			t.flowPC = start
			t.resyncs++
		}
		// The gap completes a block only if it crosses an aligned
		// boundary.
		if b.PC&^(BlockBytes-1) > t.flowPC {
			t.advance(b.PC, log)
		} else if t.flowPC < b.PC {
			t.flowPC = b.PC
		}

		isCond := b.Kind == trace.Cond
		if isCond {
			// The vector is written field by field: a composite literal
			// is built on the stack and copied with 16-byte loads, which
			// cannot forward from its 8-byte stores.
			info := &infos[len(log.Marks)]
			info.PC = b.PC
			info.BlockPC = t.blockStart
			info.Hist = t.selectHist()
			info.Path[0], info.Path[1], info.Path[2] = t.path.Z(), t.path.Y(), t.path.X()
			info.Thread = t.threadTag
			t.condSeen++
			// Retire the branch into the per-branch global history and
			// the in-progress block state.
			t.ghist.Shift(b.Taken)
			t.blockHasCond = true
			t.blockCondCount++
			t.blockLastPC = b.PC
			t.blockLastTaken = b.Taken
		}

		if b.Taken {
			t.completeBlock(b.Target, log)
			t.flowPC = b.Target
		} else {
			next := b.PC + trace.InstrBytes
			if next%BlockBytes == 0 {
				t.completeBlock(next, log)
			}
			t.flowPC = next
		}
		if isCond {
			log.Marks = append(log.Marks, int32(len(log.Entries)))
		}
	}
	return len(recs), nil
}

// selectHist materializes the mode's history variant.
func (t *Tracker) selectHist() uint64 {
	if !t.mode.Compressed {
		return t.ghist.Value()
	}
	return t.lgDelay.Old()
}

// advance walks the straight-line instructions from the flow point up to
// (but excluding) pc, across at least one aligned boundary, completing a
// fetch block at every boundary on the way: the in-progress block on its
// own if it holds a conditional branch, then the empty blocks as one run.
func (t *Tracker) advance(pc uint64, log *BlockLog) {
	end := pc &^ (BlockBytes - 1) // the last boundary the walk reaches
	if t.blockHasCond {
		regionEnd := (t.flowPC | (BlockBytes - 1)) + 1
		t.completeBlock(regionEnd, log)
		if regionEnd == end {
			t.flowPC = pc
			return
		}
	}
	t.completeRun(end, log)
	t.flowPC = pc
}

// completeBlock finalizes the in-progress fetch block: inserts the lghist
// bit (§5.1: only blocks containing a conditional branch insert one),
// snapshots the delayed history, logs the block and pushes the path queue.
func (t *Tracker) completeBlock(nextStart uint64, log *BlockLog) {
	if t.blockHasCond {
		t.lg.Shift(history.LGHistBit(t.blockLastPC, t.blockLastTaken, t.mode.PathBit))
		t.lgBits++
	}
	t.lgDelay.Push(t.lg.Value())
	e := log.add()
	e.Addr, e.Next = t.blockStart, nextStart
	e.LastCondPC, e.LastCondTaken = t.blockLastPC, t.blockLastTaken
	e.Conds, e.Run = uint8(t.blockCondCount), false
	t.path.Push(t.blockStart)
	t.blocks++
	t.blockStart = nextStart
	t.blockHasCond = false
	t.blockCondCount = 0
}

// completeRun finalizes the in-progress block, which holds no conditional
// branch, and the empty aligned blocks after it up to the boundary end, in
// closed form: no lghist bit is inserted, the delay line takes one push of
// the unchanged lghist per block, and only the last three block addresses
// survive in the path queue.
func (t *Tracker) completeRun(end uint64, log *BlockLog) {
	first, base := t.blockStart, t.blockStart&^(BlockBytes-1)
	n := int64((end - base) / BlockBytes)
	t.lgDelay.PushN(t.lg.Value(), n)
	e := log.add()
	e.Addr, e.Next = first, end
	e.LastCondPC, e.LastCondTaken = t.blockLastPC, t.blockLastTaken
	e.Conds, e.Run = 0, true
	for k := max(n-3, 0); k < n; k++ {
		addr := base + uint64(k)*BlockBytes
		if k == 0 {
			addr = first
		}
		t.path.Push(addr)
	}
	t.blocks += n
	t.blockStart = end
}
