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
// history.Info vectors under a configurable Mode. The five information
// vectors compared in Figure 7 are all Mode values (see the Mode*
// constructors).
package frontend

import (
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
// Mode — the single lookup behind ev8sweep's -mode flag and the serving
// layer's experiment specs (internal/serve), so a spec submitted over
// HTTP resolves to exactly the mode the CLI would.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "ghist":
		return ModeGhist(), nil
	case "lghist":
		return ModeLghist(), nil
	case "ev8":
		return ModeEV8(), nil
	default:
		return Mode{}, fmt.Errorf("frontend: unknown mode %q (want ghist|lghist|ev8)", name)
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

// Tracker consumes a single thread's record stream and yields the
// information vector for each conditional branch.
type Tracker struct {
	mode Mode

	ghist   history.Register
	lg      history.Register
	lgDelay *history.DelayLine
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
		lgDelay: history.NewDelayLine(mode.DelayBlocks),
	}
}

// SetThread tags emitted Info vectors with a thread id.
func (t *Tracker) SetThread(id int) { t.threadTag = id }

// SetLenient makes the tracker tolerate backwards flow discontinuities by
// resynchronizing (completing the in-progress block and restarting the
// flow) instead of panicking. This models a front end whose single
// history context is shared by interleaved threads — the §3 "shared
// history" SMT configuration. Resyncs counts the discontinuities.
func (t *Tracker) SetLenient(v bool) { t.lenient = v }

// Resyncs returns the number of flow discontinuities absorbed in lenient
// mode.
func (t *Tracker) Resyncs() int64 { return t.resyncs }

// OnBlock registers an observer invoked at every fetch-block completion.
func (t *Tracker) OnBlock(fn func(Block)) { t.onBlock = fn }

// Mode returns the tracker's information-vector mode.
func (t *Tracker) Mode() Mode { return t.mode }

// Blocks returns the number of completed fetch blocks.
func (t *Tracker) Blocks() int64 { return t.blocks }

// LghistBits returns the number of bits inserted into lghist so far.
func (t *Tracker) LghistBits() int64 { return t.lgBits }

// CondBranches returns the number of conditional branches processed.
func (t *Tracker) CondBranches() int64 { return t.condSeen }

// Reset restores the power-on state.
func (t *Tracker) Reset() {
	t.ghist.Reset()
	t.lg.Reset()
	t.lgDelay.Reset()
	t.path.Reset()
	t.started = false
	t.blockHasCond = false
	t.blockCondCount = 0
	t.blocks, t.lgBits, t.condSeen, t.resyncs = 0, 0, 0, 0
}

// Process advances the front end over one record. For conditional records
// it returns the information vector the predictor would have been handed
// (valid at prediction time, i.e. computed before the branch's own outcome
// affects any state) and true.
func (t *Tracker) Process(b trace.Branch) (history.Info, bool) {
	if !t.started {
		start := b.PC - uint64(b.Gap)*trace.InstrBytes
		t.flowPC = start
		t.blockStart = start
		t.started = true
	}
	// Flow invariant: the record's gap instructions start exactly at the
	// current flow point.
	if start := b.PC - uint64(b.Gap)*trace.InstrBytes; start != t.flowPC {
		if !t.lenient {
			panic(fmt.Sprintf("frontend: record PC %#x (gap %d) does not continue flow %#x (inconsistent trace)",
				b.PC, b.Gap, t.flowPC))
		}
		// Thread switch (or other discontinuity): close the in-progress
		// block and restart the flow at the new stream position.
		t.completeBlock(start)
		t.flowPC = start
		t.resyncs++
	}
	t.advance(b.PC)

	var info history.Info
	isCond := b.Kind == trace.Cond
	if isCond {
		// Path is copied element-wise, not as Snapshot's 24-byte array:
		// the queue was just written by Push's three 8-byte stores,
		// which a wider load cannot forward from.
		info = history.Info{
			PC:      b.PC,
			BlockPC: t.blockStart,
			Hist:    t.selectHist(),
			Path:    [3]uint64{t.path.Z(), t.path.Y(), t.path.X()},
			Thread:  t.threadTag,
		}
		t.condSeen++
		// Retire the branch into the per-branch global history and the
		// in-progress block state.
		t.ghist.Shift(b.Taken)
		t.blockHasCond = true
		t.blockCondCount++
		t.blockLastPC = b.PC
		t.blockLastTaken = b.Taken
	}

	if b.Taken {
		t.completeBlock(b.Target)
		t.flowPC = b.Target
	} else {
		next := b.PC + trace.InstrBytes
		if next%BlockBytes == 0 {
			t.completeBlock(next)
		}
		t.flowPC = next
	}
	return info, isCond
}

// selectHist materializes the mode's history variant.
func (t *Tracker) selectHist() uint64 {
	if !t.mode.Compressed {
		return t.ghist.Value()
	}
	return t.lgDelay.Old()
}

// advance walks the straight-line instructions from the current flow point
// up to (but excluding) pc, completing fetch blocks at aligned boundaries.
func (t *Tracker) advance(pc uint64) {
	for t.flowPC < pc {
		regionEnd := (t.flowPC | (BlockBytes - 1)) + 1
		if regionEnd <= pc {
			t.completeBlock(regionEnd)
			t.flowPC = regionEnd
		} else {
			t.flowPC = pc
		}
	}
}

// completeBlock finalizes the in-progress fetch block: inserts the lghist
// bit (§5.1: only blocks containing a conditional branch insert one),
// snapshots the delayed history, pushes the path queue, and notifies any
// observer.
func (t *Tracker) completeBlock(nextStart uint64) {
	if t.blockHasCond {
		t.lg.Shift(history.LGHistBit(t.blockLastPC, t.blockLastTaken, t.mode.PathBit))
		t.lgBits++
	}
	t.lgDelay.Push(t.lg.Value())
	if t.onBlock != nil {
		t.onBlock(Block{
			Addr:          t.blockStart,
			Next:          nextStart,
			HasCond:       t.blockHasCond,
			CondCount:     t.blockCondCount,
			LastCondPC:    t.blockLastPC,
			LastCondTaken: t.blockLastTaken,
		})
	}
	t.path.Push(t.blockStart)
	t.blocks++
	t.blockStart = nextStart
	t.blockHasCond = false
	t.blockCondCount = 0
}
