package ev8

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ev8pred/internal/history"
	"ev8pred/internal/snapshot"
)

// ev8Payload builds a CRC-valid EV8 snapshot for p with the given bank
// sequencer head, n pending snapshots claimed with no pairs behind them,
// and every other wrapper field at its power-on value.
func ev8Payload(p *Predictor, head, n uint64) []byte {
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
	e.Uint64(n)   // pending snapshots
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
	if err := p.RestoreState(ev8Payload(p, 7, 0)); err != nil {
		t.Fatalf("head 7 refused: %v", err)
	}
	if err := p.RestoreState(ev8Payload(p, 1<<63, 0)); !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("head 2^63: got %v (stored head %d), want an error wrapping ErrBadSnapshot", err, p.seq.head)
	}
}

// TestRestoreRefusesPendingBeyondPayload pins the pending count's bound:
// a count the payload cannot hold is refused before any pair is read,
// also when it is within the ring's cap.
func TestRestoreRefusesPendingBeyondPayload(t *testing.T) {
	p := MustNew(DefaultConfig())
	for _, n := range []uint64{snapRingCap, 1 << 40} {
		err := p.RestoreState(ev8Payload(p, 0, n))
		if !errors.Is(err, snapshot.ErrBadSnapshot) || !strings.Contains(err.Error(), "exceeds payload") {
			t.Fatalf("pending %d with no pairs: got %v, want the payload bound's ErrBadSnapshot", n, err)
		}
	}
}

// TestSnapRingHoldsDeepCommitDelays: at a commit delay of 1500 every
// unfused Update still finds its prediction-time snapshot, and the
// in-flight snapshots survive a SnapshotState/RestoreState round trip.
func TestSnapRingHoldsDeepCommitDelays(t *testing.T) {
	const depth = 1500
	p := MustNew(DefaultConfig())
	infos := make([]history.Info, depth)
	for i := range infos {
		infos[i] = history.Info{PC: uint64(0x1000 + 4*i), BlockPC: uint64(0x1000 + 32*(i/8)), Hist: uint64(i)}
		p.Predict(&infos[i])
	}
	state := p.SnapshotState()
	q := MustNew(DefaultConfig())
	if err := q.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.SnapshotState(), state) {
		t.Fatal("restored snapshot differs from the original")
	}
	for i := range infos {
		if _, ok := q.pending.take(&infos[i]); !ok {
			t.Fatalf("prediction %d of %d lost its snapshot", i, depth)
		}
	}
}
