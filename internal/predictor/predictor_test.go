package predictor

import (
	"testing"
	"testing/quick"

	"ev8pred/internal/history"
	"ev8pred/internal/snapshot"
)

func TestPCBitsSkipsAlignment(t *testing.T) {
	// Sequential instructions (4 bytes apart) map to sequential entries.
	if PCBits(0x1000, 10)+1 != PCBits(0x1004, 10) {
		t.Error("adjacent instructions do not map to adjacent entries")
	}
	if PCBits(0x1000, 4) >= 16 {
		t.Error("PCBits exceeded mask")
	}
}

func TestGshareIndexRange(t *testing.T) {
	f := func(pc, hist uint64) bool {
		return GshareIndex(pc, hist, 27, 16) < 1<<16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGshareIndexMixesHistory(t *testing.T) {
	pc := uint64(0x4000)
	if GshareIndex(pc, 0, 16, 14) == GshareIndex(pc, 0x5a5a, 16, 14) {
		t.Error("history does not affect the index")
	}
}

func TestGshareIndexIgnoresBitsBeyondHistLen(t *testing.T) {
	pc := uint64(0x4000)
	a := GshareIndex(pc, 0x0fff, 8, 14)
	b := GshareIndex(pc, 0xffff_0fff, 8, 14)
	if a != b {
		t.Error("bits beyond histLen leaked into the index")
	}
}

func TestHistMask(t *testing.T) {
	if HistMask(^uint64(0), 5) != 31 {
		t.Error("HistMask(…, 5) != 31")
	}
	if HistMask(0x1234, 0) != 0 {
		t.Error("HistMask(…, 0) != 0")
	}
}

// TestPairCodec pins the carried-state record: PairBytes is its exact wire
// size, and DecodePair inverts EncodePair, including a negative thread id.
func TestPairCodec(t *testing.T) {
	info := history.Info{PC: 0x1234, BlockPC: 0x1200, Hist: 0xACE, Path: [3]uint64{1, 2, 3}, Thread: -2}
	s := Snapshot{Idx: [MaxSnapshotBanks]uint64{9, 8, 7, 6}, Preds: 0b1010, Final: true}

	e := snapshot.NewEncoder("pair/v1")
	empty := len(e.Finish())
	e = snapshot.NewEncoder("pair/v1")
	EncodePair(e, info, s)
	data := e.Finish()
	if got := len(data) - empty; got != PairBytes {
		t.Fatalf("EncodePair wrote %d bytes, PairBytes = %d", got, PairBytes)
	}

	d, err := snapshot.NewDecoder(data, "pair/v1")
	if err != nil {
		t.Fatal(err)
	}
	gotInfo, gotSnap := DecodePair(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if gotInfo != info || gotSnap != s {
		t.Fatalf("round trip: got %+v %+v, want %+v %+v", gotInfo, gotSnap, info, s)
	}
}
