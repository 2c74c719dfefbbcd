package frontend

import (
	"bytes"
	"errors"
	"testing"

	"ev8pred/internal/snapshot"
)

// trackerPayload builds a CRC-valid tracker snapshot for t's mode with the
// given histories and delay-line head, every other field zero.
func trackerPayload(t *Tracker, ghist, lg, head uint64) []byte {
	e := snapshot.NewEncoder(stateLabel)
	e.Bool(t.mode.Compressed)
	e.Bool(t.mode.PathBit)
	e.Uint64(uint64(t.mode.DelayBlocks))
	e.Uint64(ghist)
	e.Uint64(lg)
	e.Words(make([]uint64, t.lgDelay.Depth()+1))
	e.Uint64(head)
	for i := 0; i < 5; i++ { // path[0..2], flowPC, blockStart
		e.Uint64(0)
	}
	e.Bool(false) // started
	e.Bool(false) // blockHasCond
	e.Uint64(0)   // blockCondCount
	e.Uint64(0)   // blockLastPC
	e.Bool(false) // blockLastTaken
	// blocks, lgBits, condSeen, resyncs
	for i := 0; i < 4; i++ {
		e.Int64(0)
	}
	return e.Finish()
}

// TestRestoreFailureLeavesTrackerUnchanged feeds a well-formed snapshot
// whose delay-line head is 2^63: the restore must be refused before any
// field is written, so the tracker re-snapshots byte-identically.
func TestRestoreFailureLeavesTrackerUnchanged(t *testing.T) {
	ok := NewTracker(ModeEV8())
	if err := ok.RestoreState(trackerPayload(ok, 0xdead, 0xbeef, 0)); err != nil {
		t.Fatalf("control payload refused: %v", err)
	}

	tr := NewTracker(ModeEV8())
	before := tr.SnapshotState()
	err := tr.RestoreState(trackerPayload(tr, 0xdead, 0xbeef, 1<<63))
	if !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("head 2^63: got %v, want an error wrapping ErrBadSnapshot", err)
	}
	if after := tr.SnapshotState(); !bytes.Equal(after, before) {
		t.Fatal("failed restore changed the tracker")
	}
}
