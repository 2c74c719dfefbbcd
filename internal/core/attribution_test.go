package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// reference runs a 2Bc-gskew machine whose updates go through the
// reference attribution update (core.ReferenceUpdateWith). It is a
// fused predictor but not a batch predictor, so every run of it takes
// the scalar path, with the simulator's commit-delay ring.
type reference struct{ c *core.Predictor }

func (r reference) Predict(info *history.Info) bool { return r.c.Predict(info) }
func (r reference) Update(info *history.Info, taken bool) {
	core.ReferenceUpdateWith(r.c, r.c.Lookup(info), taken)
}
func (r reference) Lookup(info *history.Info) predictor.Snapshot { return r.c.Lookup(info) }
func (r reference) UpdateWith(s predictor.Snapshot, taken bool) {
	core.ReferenceUpdateWith(r.c, s, taken)
}
func (r reference) Name() string          { return r.c.Name() }
func (r reference) SizeBits() int         { return r.c.SizeBits() }
func (r reference) EnableStats(on bool)   { r.c.EnableStats(on) }
func (r reference) Stats() stats.Counters { return r.c.Stats() }

// ev8Reference is the EV8 over the reference update: idx is an untrained
// EV8 that observes every fetch block and supplies the bank-sequenced
// indices, which depend on the block stream and never on counter state;
// the embedded reference machine, built to the EV8's core geometry, holds
// the trained tables.
type ev8Reference struct {
	reference
	idx *ev8.Predictor
}

func (r ev8Reference) ObserveBlock(b frontend.Block) { r.idx.ObserveBlock(b) }

func newEV8Reference(t *testing.T, partial bool) ev8Reference {
	idx, err := ev8.New(ev8.Config{PartialUpdate: partial})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ConfigEV8Size()
	cfg.PartialUpdate = partial
	cfg.Name = idx.Name()
	cfg.Indexes = func(info *history.Info) [core.NumBanks]uint64 { return idx.Lookup(info).Idx }
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev8Reference{reference{c}, idx}
}

// TestInstrumentedUpdateMatchesReference is the attribution differential:
// for every preset and the EV8, under both update policies, at update
// delays 0, 8 and 64 and on the batch kernel and the scalar path, every
// attribution counter and the final table state (prediction and
// hysteresis arrays, traffic counters) must equal a scalar run of the
// same machine over the reference update.
func TestInstrumentedUpdateMatchesReference(t *testing.T) {
	for _, bench := range []string{"gcc", "go"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.New(prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		records, err := trace.Collect(g, 30000)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) < 30000 {
			t.Fatalf("%s: collected only %d records", bench, len(records))
		}
		t.Run(bench, func(t *testing.T) { checkAgainstReference(t, records) })
	}
}

func checkAgainstReference(t *testing.T, records []trace.Branch) {
	presets := []func() core.Config{
		core.Config256K, core.Config512K, core.Config512KShortHist, core.Config256KShortHist,
		core.Config512KLghist, core.ConfigSmallBIM, core.ConfigEV8Size, core.Config4M,
	}
	type machine struct {
		name string
		mode frontend.Mode
		// build returns the machine under test, its reference twin and
		// the reference's core, whose snapshot is the expected state.
		build func(partial bool) (predictor.Predictor, predictor.Predictor, *core.Predictor)
	}
	var machines []machine
	for _, preset := range presets {
		machines = append(machines, machine{preset().Name, frontend.ModeGhist(),
			func(partial bool) (predictor.Predictor, predictor.Predictor, *core.Predictor) {
				cfg := preset()
				cfg.PartialUpdate = partial
				ref := core.MustNew(cfg)
				return core.MustNew(cfg), reference{ref}, ref
			}})
	}
	machines = append(machines, machine{"EV8", frontend.ModeEV8(),
		func(partial bool) (predictor.Predictor, predictor.Predictor, *core.Predictor) {
			r := newEV8Reference(t, partial)
			return ev8.MustNew(ev8.Config{PartialUpdate: partial}), r, r.c
		}})

	for _, m := range machines {
		for _, partial := range []bool{true, false} {
			for _, delay := range []int{0, 8, 64} {
				_, ref, refCore := m.build(partial)
				opts := sim.Options{Mode: m.mode, UpdateDelay: delay, Collect: true}
				want, err := sim.Run(ref, trace.NewSlice(records), opts)
				if err != nil {
					t.Fatal(err)
				}
				wantState := refCore.SnapshotState()
				for _, batch := range []sim.BatchMode{sim.BatchAuto, sim.BatchOff} {
					name := fmt.Sprintf("%s/partial=%v/delay=%d/batch=%v", m.name, partial, delay, batch)
					p, _, _ := m.build(partial)
					opts.Batch = batch
					got, err := sim.Run(p, trace.NewSlice(records), opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Branches != want.Branches || got.Mispredicts != want.Mispredicts {
						t.Errorf("%s: %d branches / %d mispredicts, reference %d / %d",
							name, got.Branches, got.Mispredicts, want.Branches, want.Mispredicts)
					}
					if got.Stats == nil || want.Stats == nil {
						t.Fatalf("%s: run without attribution counters", name)
					}
					gotStats := got.Stats.Map()
					for _, c := range *want.Stats {
						if v, ok := gotStats[c.Name]; !ok || v != c.Value {
							t.Errorf("%s: %s = %d (present %v), reference %d", name, c.Name, v, ok, c.Value)
						}
					}
					// A core's snapshot is its whole state; the EV8's
					// embeds its core's snapshot, so the reference core's
					// bytes must appear in it verbatim.
					if gotState := p.(predictor.Snapshotter).SnapshotState(); !bytes.Contains(gotState, wantState) {
						t.Errorf("%s: final table state differs from the reference's", name)
					}
				}
			}
		}
	}
}
