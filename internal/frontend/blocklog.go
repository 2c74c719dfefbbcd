package frontend

// RunsPerRecord bounds the block-log entries one record adds to a walk:
// a resynchronization block (lenient mode), the in-progress block its
// gap completes, the run of empty blocks after that, and the block the
// record itself ends.
const RunsPerRecord = 4

// LogEntry is one entry of a BlockLog: a single completed fetch block, or
// (Run) a straight-line run of empty blocks.
type LogEntry struct {
	// Addr is the first block's address; Next the address after the
	// entry's last block.
	Addr, Next uint64
	// LastCondPC and LastCondTaken are the tracker's last-conditional
	// state when the entry's blocks completed (Block's fields of the same
	// names).
	LastCondPC uint64
	// Conds is the number of conditional branches in a single block; a
	// run holds none.
	Conds         uint8
	LastCondTaken bool
	// Run marks the straight-line span [Addr, Next) of blocks that hold
	// no conditional branch, split at every aligned BlockBytes boundary;
	// Next is aligned.
	Run bool
}

// EachBlock calls fn for each fetch block of the entry, in order.
func (e *LogEntry) EachBlock(fn func(Block)) {
	if !e.Run {
		fn(Block{Addr: e.Addr, Next: e.Next, HasCond: e.Conds > 0, CondCount: int(e.Conds),
			LastCondPC: e.LastCondPC, LastCondTaken: e.LastCondTaken})
		return
	}
	for a := e.Addr; a < e.Next; {
		next := (a | (BlockBytes - 1)) + 1
		fn(Block{Addr: a, Next: next, LastCondPC: e.LastCondPC, LastCondTaken: e.LastCondTaken})
		a = next
	}
}

// BlockLog is the caller-owned record of a walk (Tracker.Walk): the fetch
// blocks it completed, in order, and for each conditional branch its mark
// — the number of entries logged once the branch's record was walked, so
// a consumer that replays Entries[:Marks[k]] before reading the branch
// stands where a record-at-a-time loop stands when it predicts it.
// Walks of several threads' trackers may share one log; the entries
// interleave in record order.
type BlockLog struct {
	Entries []LogEntry
	Marks   []int32
}

// NewBlockLog returns a log with room for a walk of up to records records.
func NewBlockLog(records int) BlockLog {
	return BlockLog{
		Entries: make([]LogEntry, 0, RunsPerRecord*records),
		Marks:   make([]int32, 0, records),
	}
}

// Reset empties the log, keeping its storage.
func (l *BlockLog) Reset() {
	l.Entries = l.Entries[:0]
	l.Marks = l.Marks[:0]
}

// add extends Entries by one slot, within its capacity, and returns it
// for the caller to fill field by field (see Tracker.Walk).
func (l *BlockLog) add() *LogEntry {
	n := len(l.Entries)
	l.Entries = l.Entries[:n+1]
	return &l.Entries[n]
}
