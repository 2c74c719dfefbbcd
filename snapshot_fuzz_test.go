package ev8pred_test

// Adversarial coverage of the snapshot wire format: a deterministic
// mutant suite (every sampled truncation and bit flip of a real snapshot
// must be refused with a typed error, leaving the target predictor
// bit-identically unchanged) and FuzzSnapshotDecode, which drives
// arbitrary bytes through the decoder, every Snapshotter family's
// RestoreState, the front-end tracker's RestoreState, and
// sim.Checkpoint.UnmarshalBinary. The invariants under
// fuzz: no panic, every failure wraps snapshot.ErrBadSnapshot, and a
// restore that reports success must reproduce the exact bytes it decoded
// (no silently-wrong restore).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ev8pred"
	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/sim"
	"ev8pred/internal/snapshot"
	"ev8pred/internal/trace/faultinject"
	"ev8pred/internal/workload"
)

// snapshotter is the state-serialization surface under attack.
type snapshotter interface {
	SnapshotState() []byte
	RestoreState([]byte) error
}

// trainedSnapshot runs the family briefly (attribution on, so the stats
// block is populated) and returns the predictor with its state snapshot.
func trainedSnapshot(t testing.TB, c resumeCase) (ev8pred.Predictor, []byte) {
	t.Helper()
	p, err := c.make()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: c.mode, MaxBranches: 2_000, Collect: true}
	if _, err := ev8pred.RunBenchmark(p, prof, 40_000, opts); err != nil {
		t.Fatal(err)
	}
	snap := p.(snapshotter).SnapshotState()
	if len(snap) == 0 {
		t.Fatalf("%s: empty snapshot", c.name)
	}
	return p, snap
}

// TestSnapshotMutantsNeverRestore is the deterministic mutant sweep: for
// every Snapshotter family, a sampled set of truncations and single-bit
// flips of a trained snapshot must each (a) fail with an error wrapping
// snapshot.ErrBadSnapshot, and (b) leave the receiver untouched — its
// next SnapshotState() is byte-identical to the pre-attempt state.
func TestSnapshotMutantsNeverRestore(t *testing.T) {
	for _, c := range resumeRoster() {
		t.Run(c.name, func(t *testing.T) {
			p, snap := trainedSnapshot(t, c)
			sp := p.(snapshotter)

			check := func(label string, mutant []byte) {
				t.Helper()
				err := sp.RestoreState(mutant)
				if err == nil {
					t.Fatalf("%s: mutant restored without error", label)
				}
				if !errors.Is(err, snapshot.ErrBadSnapshot) {
					t.Fatalf("%s: error %v does not wrap ErrBadSnapshot", label, err)
				}
				if got := sp.SnapshotState(); !bytes.Equal(got, snap) {
					t.Fatalf("%s: failed restore mutated the receiver", label)
				}
			}

			// Sample the mutant space so the large families stay cheap:
			// ~500 truncations and ~500 bit-flip sites each, all eight bit
			// positions rotating across sites (see faultinject.Corpus).
			stride := len(snap) / 500
			if stride < 1 {
				stride = 1
			}
			for i, m := range faultinject.Corpus(snap, stride) {
				check(fmt.Sprintf("mutant[%d]", i), m)
			}
			// The boundary cases the stride can step over.
			check("empty", nil)
			check("truncated-tail", snap[:len(snap)-1])
			last := append([]byte(nil), snap...)
			last[len(last)-1] ^= 0x01
			check("crc-flip", last)

			// The pristine bytes still restore after every refusal.
			if err := sp.RestoreState(snap); err != nil {
				t.Fatalf("pristine snapshot refused after mutant sweep: %v", err)
			}
		})
	}
}

// TestCheckpointMutantsNeverResume applies the same sweep to the composed
// sim.Checkpoint container (predictor state + tracker states + pending
// update ring): every sampled mutant must be refused typed, and the
// destination Checkpoint must be left untouched by the failure.
func TestCheckpointMutantsNeverResume(t *testing.T) {
	prof, err := ev8pred.BenchmarkByName("go")
	if err != nil {
		t.Fatal(err)
	}
	p := ev8pred.NewEV8()
	g, err := workload.New(prof, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Mode: ev8pred.ModeEV8(), MaxBranches: 1_500, UpdateDelay: 8, Warmup: 300}
	_, ck, err := sim.RunCheckpoint(p, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	stride := len(blob) / 500
	if stride < 1 {
		stride = 1
	}
	for i, m := range faultinject.Corpus(blob, stride) {
		var out sim.Checkpoint
		err := out.UnmarshalBinary(m)
		if err == nil {
			t.Fatalf("mutant[%d]: checkpoint decoded without error", i)
		}
		if !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("mutant[%d]: error %v does not wrap ErrBadSnapshot", i, err)
		}
		if out.Records != 0 || out.PredictorState != nil || out.Trackers != nil || out.Pending != nil {
			t.Fatalf("mutant[%d]: failed decode left state in the destination: %+v", i, out)
		}
	}

	var out sim.Checkpoint
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}
}

// smallCoreConfig is a 2Bc-gskew with 1K-entry banks, cheap to build once
// per fuzz input.
func smallCoreConfig() core.Config {
	cfg := core.Config256K()
	for b := range cfg.Banks {
		cfg.Banks[b].Entries = core.K
	}
	cfg.Name = "2Bc-gskew-fuzz"
	return cfg
}

// FuzzSnapshotDecode feeds arbitrary bytes to every decode surface of the
// snapshot format. Seeds: one trained snapshot per family, a composed
// checkpoint, and a fault-injection sample of each; then the trained
// snapshots of the small 2Bc-gskew and the EV8 restore targets and an
// EV8-mode tracker state.
func FuzzSnapshotDecode(f *testing.F) {
	var seeds [][]byte
	for _, c := range resumeRoster() {
		_, snap := trainedSnapshot(f, c)
		seeds = append(seeds, snap)
		seeds = append(seeds, faultinject.Corpus(snap, len(snap)/8+1)...)
	}
	prof, err := ev8pred.BenchmarkByName("compress")
	if err != nil {
		f.Fatal(err)
	}
	p, err := ev8pred.NewGshare(1<<10, 10)
	if err != nil {
		f.Fatal(err)
	}
	g, err := workload.New(prof, 20_000)
	if err != nil {
		f.Fatal(err)
	}
	if _, ck, err := sim.RunCheckpoint(p, g, sim.Options{Mode: ev8pred.ModeGhist(), MaxBranches: 500, UpdateDelay: 4}); err != nil {
		f.Fatal(err)
	} else if blob, err := ck.MarshalBinary(); err != nil {
		f.Fatal(err)
	} else {
		seeds = append(seeds, blob)
		seeds = append(seeds, faultinject.Corpus(blob, len(blob)/8+1)...)
	}
	// The tracker, 2Bc-gskew and EV8 restore targets below, each with its
	// own trained snapshot (appended last, so the earlier seeds keep
	// their numbers).
	bcg, err := core.New(smallCoreConfig())
	if err != nil {
		f.Fatal(err)
	}
	ev, err := ev8.New(ev8.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	trained := map[string]snapshotter{"2bcg": bcg, "ev8": ev}
	for _, name := range []string{"2bcg", "ev8"} {
		mode := ev8pred.ModeGhist()
		if name == "ev8" {
			mode = ev8pred.ModeEV8()
		}
		opts := sim.Options{Mode: mode, MaxBranches: 2_000, Collect: true}
		if _, err := ev8pred.RunBenchmark(trained[name].(ev8pred.Predictor), prof, 40_000, opts); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, trained[name].SnapshotState())
	}
	g, err = workload.New(prof, 20_000)
	if err != nil {
		f.Fatal(err)
	}
	if _, ck, err := sim.RunCheckpoint(ev8pred.NewEV8(), g, sim.Options{Mode: ev8pred.ModeEV8(), MaxBranches: 500}); err != nil {
		f.Fatal(err)
	} else {
		seeds = append(seeds, ck.Trackers[0].State)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw decoder walk: whatever the framing says, reading a rotating
		// sequence of field types must end in a typed error or clean
		// Finish, never a panic or a huge allocation. Every successful
		// read consumes at least one byte, so a read that leaves
		// Remaining unchanged is the decoder's first (sticky) failure.
		if d, err := snapshot.NewDecoder(data, ""); err == nil {
			for i := 0; ; i++ {
				before := d.Remaining()
				switch i % 6 {
				case 0:
					d.Uint64()
				case 1:
					d.Int64()
				case 2:
					d.Bool()
				case 3:
					d.Bytes()
				case 4:
					_ = d.String()
				case 5:
					d.Words()
				}
				if d.Remaining() == before {
					if ferr := d.Finish(); !errors.Is(ferr, snapshot.ErrBadSnapshot) {
						t.Fatalf("decoder error %v does not wrap ErrBadSnapshot", ferr)
					}
					break
				}
				if d.Remaining() == 0 {
					if ferr := d.Finish(); ferr != nil {
						t.Fatalf("Finish with empty payload: %v", ferr)
					}
					break
				}
			}
		} else if !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("NewDecoder error %v does not wrap ErrBadSnapshot", err)
		}

		// Restore surfaces: a fresh predictor per Snapshotter family (small
		// where the family has a size), an EV8-mode front-end tracker, and
		// the checkpoint container. Success is
		// only legal if the bytes re-snapshot identically.
		gp, err := ev8pred.NewGshare(1<<10, 10)
		if err != nil {
			t.Fatal(err)
		}
		eg, err := ev8pred.NewEGskew(1<<10, 10, true)
		if err != nil {
			t.Fatal(err)
		}
		bcg, err := core.New(smallCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ev8.New(ev8.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		targets := []snapshotter{gp.(snapshotter), eg.(snapshotter), bcg, ev, frontend.NewTracker(ev8pred.ModeEV8())}
		for _, target := range targets {
			if err := target.RestoreState(data); err != nil {
				if !errors.Is(err, snapshot.ErrBadSnapshot) {
					t.Fatalf("RestoreState error %v does not wrap ErrBadSnapshot", err)
				}
			} else if got := target.SnapshotState(); !bytes.Equal(got, data) {
				t.Fatalf("silently-wrong restore: accepted %d bytes, re-snapshots differently", len(data))
			}
		}

		var ck sim.Checkpoint
		if err := ck.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("UnmarshalBinary error %v does not wrap ErrBadSnapshot", err)
			}
		} else if blob, err := ck.MarshalBinary(); err != nil || !bytes.Equal(blob, data) {
			t.Fatalf("checkpoint round trip diverged (err %v)", err)
		}
	})
}
