package ev8

import (
	"errors"
	"testing"

	"ev8pred/internal/snapshot"
)

// ev8Payload builds a CRC-valid EV8 snapshot for p with the given bank
// sequencer head and every other wrapper field at its power-on value.
func ev8Payload(p *Predictor, head uint64) []byte {
	e := snapshot.NewEncoder(stateLabel)
	e.String(p.ConfigKey())
	e.Bytes(p.core.SnapshotState())
	for range p.seq.recent {
		e.Uint64(0)
		e.Byte(0)
	}
	e.Uint64(head)
	e.Uint64(0)   // curAddr
	e.Byte(0)     // curBank
	e.Uint64(0)   // prevAddr
	e.Byte(0)     // lastIssued
	e.Bool(false) // started
	e.Uint64(0)   // pending snapshots
	e.Int64(0)    // blocksSeen
	e.Int64(0)    // bankConflicts
	e.Int64(-1)   // lastBank
	e.Uint64(0)   // lastAddr
	for range p.bankUse {
		e.Int64(0)
	}
	e.Int64(0)  // cycles
	e.Uint64(0) // cycleSlot
	e.Uint64(0) // cycleConds
	for range p.condsPerCycle {
		e.Int64(0)
	}
	return e.Finish()
}

// TestRestoreRefusesHugeSequencerHead pins the sequencer head's range
// check on the full 64-bit value: 2^63 must not wrap to a negative int
// and slip past the [0,8) bound.
func TestRestoreRefusesHugeSequencerHead(t *testing.T) {
	p := MustNew(DefaultConfig())
	if err := p.RestoreState(ev8Payload(p, 7)); err != nil {
		t.Fatalf("head 7 refused: %v", err)
	}
	if err := p.RestoreState(ev8Payload(p, 1<<63)); !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("head 2^63: got %v (stored head %d), want an error wrapping ErrBadSnapshot", err, p.seq.head)
	}
}
