package ev8pred_test

// Wire-format goldens: the sha256 of every Snapshotter family's trained
// snapshot and of one delayed-update checkpoint blob. A decoder or encoder
// refactor must leave these bytes identical, so a checkpoint or cache entry
// written by an older build still loads; a deliberate format change bumps
// the container label and these constants together.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ev8pred"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestSnapshotWireGolden pins each resumeRoster family's SnapshotState
// after trainedSnapshot's fixed, attribution-on run.
func TestSnapshotWireGolden(t *testing.T) {
	want := map[string]string{
		"gshare":   "b74b86ebd7c8466f210ec8051fe1ce42c3c5c51973cced78521a6c922cbe6390",
		"egskew":   "05daed955a827d578c683f12659b4248122ca7da9082aaa2ebaca58dd2714132",
		"2bcgskew": "805e6b75ad6baeacb892d32f54a8c5352d7f18f77746c890f1666267819f597d",
		"ev8":      "a22f658cdf024bc8fe5dee6f81377ab3b87098d48cef345d6e1b78d292d2d0c9",
	}
	for _, c := range resumeRoster() {
		_, snap := trainedSnapshot(t, c)
		if got := sha256Hex(snap); got != want[c.name] {
			t.Errorf("%s: snapshot sha256 %s, want %s", c.name, got, want[c.name])
		}
	}
}

// TestCheckpointWireGolden pins one RunCheckpoint blob at update delay 8,
// so the pending (Info, Snapshot, Taken) records are on the wire.
func TestCheckpointWireGolden(t *testing.T) {
	const want = "2194eef21a68cb471b78f168141a4c2891470bbe6b0e227ecf60da4fbc812805"
	prof, err := ev8pred.BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(prof, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: ev8pred.ModeEV8(), MaxBranches: 1_500, UpdateDelay: 8, Warmup: 300, Collect: true}
	_, ck, err := sim.RunCheckpoint(ev8pred.NewEV8(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Pending) == 0 || len(ck.Trackers) == 0 {
		t.Fatalf("checkpoint carries %d pending updates and %d trackers; the golden needs both", len(ck.Pending), len(ck.Trackers))
	}
	blob, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(blob); got != want {
		t.Errorf("checkpoint sha256 %s, want %s", got, want)
	}
}
