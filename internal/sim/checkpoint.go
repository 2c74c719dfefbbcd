// Checkpoint/resume: stop a simulation at branch N and continue it later —
// in the same process or from a serialized blob — bit-identically to a run
// that never stopped. A checkpoint captures everything the engine owns
// (stream position, raw counts, per-thread front-end state, the
// commit-delay ring) plus the predictor's own state via the
// predictor.Snapshotter contract; the resume-equivalence differential
// suite pins the bit-identity for every predictor family, update delay,
// and cut point.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/snapshot"
	"ev8pred/internal/trace"
)

// ErrNotSnapshottable reports a predictor that does not implement
// predictor.Snapshotter and therefore cannot be checkpointed or resumed.
var ErrNotSnapshottable = errors.New("sim: predictor does not implement predictor.Snapshotter")

// TrackerCheckpoint is one thread's serialized front-end tracker state.
type TrackerCheckpoint struct {
	Thread int
	State  []byte
}

// PendingCheckpoint is one in-flight commit-delay update.
type PendingCheckpoint struct {
	Info  history.Info
	Snap  predictor.Snapshot
	Taken bool
}

// Checkpoint is the complete state of a stopped run: enough to continue
// the same source bit-identically. Records tells the caller where the
// source must be positioned before ResumeFrom (see SkipRecords); the
// remaining fields are validated against the resuming run's Options and
// predictor, so a checkpoint can never silently resume into a different
// experiment.
type Checkpoint struct {
	// Predictor is the checkpointed predictor's Name(), matched on resume.
	Predictor string
	// Mode, UpdateDelay, LenientFlow and Warmup are the result-affecting
	// options of the checkpointed run; resume requires them identical.
	Mode        frontend.Mode
	UpdateDelay int
	LenientFlow bool
	Warmup      int64

	// Records is how many records the run consumed from its source.
	Records int64
	// RawBranches is the pre-warmup-clamp conditional branch count;
	// Mispredicts and Instructions cover the measured window so far.
	RawBranches  int64
	Mispredicts  int64
	Instructions int64

	// PredictorState is the predictor.Snapshotter payload.
	PredictorState []byte
	// Trackers holds per-thread front-end state, thread id ascending.
	Trackers []TrackerCheckpoint
	// Pending holds the commit-delay ring contents, oldest first.
	Pending []PendingCheckpoint
}

// each visits every tracker in deterministic order: dense ids ascending,
// then sparse ids ascending.
func (t *trackerTable) each(fn func(id int, tr *frontend.Tracker)) {
	for id, tr := range t.dense {
		if tr != nil {
			fn(id, tr)
		}
	}
	if len(t.sparse) > 0 {
		ids := make([]int, 0, len(t.sparse))
		for id := range t.sparse {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fn(id, t.sparse[id])
		}
	}
}

// capture builds a Checkpoint from a one-member engine's state at a clean
// stop, before the commit-delay ring drains and before the warmup clamp.
func (e *engine) capture() (*Checkpoint, error) {
	m := &e.members[0]
	snapper, ok := m.p.(predictor.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w (%s)", ErrNotSnapshottable, m.p.Name())
	}
	ck := &Checkpoint{
		Predictor:      m.p.Name(),
		Mode:           e.opts.Mode,
		UpdateDelay:    e.opts.UpdateDelay,
		LenientFlow:    e.opts.LenientFlow,
		Warmup:         e.opts.Warmup,
		Records:        e.records,
		RawBranches:    e.branches,
		Mispredicts:    m.mispredicts,
		Instructions:   e.instructions,
		PredictorState: snapper.SnapshotState(),
	}
	e.trackers.each(func(id int, tr *frontend.Tracker) {
		ck.Trackers = append(ck.Trackers, TrackerCheckpoint{Thread: id, State: tr.SnapshotState()})
	})
	ck.Pending = make([]PendingCheckpoint, 0, m.ring.count)
	for i := 0; i < m.ring.count; i++ {
		u := m.ring.at(i)
		ck.Pending = append(ck.Pending, PendingCheckpoint{Info: u.info, Snap: u.snap, Taken: u.taken})
	}
	return ck, nil
}

// validateResume checks a checkpoint against the resuming run's predictor
// and options before any state is touched.
func (ck *Checkpoint) validateResume(p predictor.Predictor, opts Options) error {
	if _, ok := p.(predictor.Snapshotter); !ok {
		return fmt.Errorf("%w (%s)", ErrNotSnapshottable, p.Name())
	}
	switch {
	case ck.Predictor != p.Name():
		return fmt.Errorf("sim: checkpoint of %q cannot resume predictor %q", ck.Predictor, p.Name())
	case ck.Mode != opts.Mode:
		return fmt.Errorf("sim: checkpoint mode %v does not match options mode %v", ck.Mode, opts.Mode)
	case ck.UpdateDelay != opts.UpdateDelay:
		return fmt.Errorf("sim: checkpoint update delay %d does not match options delay %d", ck.UpdateDelay, opts.UpdateDelay)
	case ck.LenientFlow != opts.LenientFlow:
		return fmt.Errorf("sim: checkpoint leniency %v does not match options %v", ck.LenientFlow, opts.LenientFlow)
	case ck.Warmup != opts.Warmup:
		return fmt.Errorf("sim: checkpoint warmup %d does not match options warmup %d", ck.Warmup, opts.Warmup)
	case len(ck.Pending) > 0 && opts.UpdateDelay <= 0:
		return fmt.Errorf("sim: checkpoint carries %d pending updates but options have no update delay", len(ck.Pending))
	case opts.UpdateDelay > 0 && len(ck.Pending) > opts.UpdateDelay:
		return fmt.Errorf("sim: checkpoint carries %d pending updates, ring holds %d", len(ck.Pending), opts.UpdateDelay)
	case ck.RawBranches < 0 || ck.Mispredicts < 0 || ck.Instructions < 0 || ck.Records < 0:
		return fmt.Errorf("sim: checkpoint carries negative counts")
	}
	return nil
}

// restoreInto validates the checkpoint against a one-member engine and
// seeds it: predictor and tracker state, counts, and the pending updates.
// The predictor restore happens before the caller enables attribution, so
// a checkpointed collection window survives the round trip
// (EnableStats(true) on an already-collecting predictor is a no-op by the
// stats contract).
func (ck *Checkpoint) restoreInto(e *engine) error {
	m := &e.members[0]
	if err := ck.validateResume(m.p, e.opts); err != nil {
		return err
	}
	if err := m.p.(predictor.Snapshotter).RestoreState(ck.PredictorState); err != nil {
		return fmt.Errorf("sim: restoring predictor state: %w", err)
	}
	for _, ts := range ck.Trackers {
		tr, err := e.trackers.create(ts.Thread, e.opts, e.onBlock)
		if err != nil {
			return err
		}
		if err := tr.RestoreState(ts.State); err != nil {
			return fmt.Errorf("sim: restoring tracker for thread %d: %w", ts.Thread, err)
		}
	}
	e.records, e.branches, e.instructions = ck.Records, ck.RawBranches, ck.Instructions
	m.mispredicts = ck.Mispredicts
	for i := range ck.Pending {
		pu := &ck.Pending[i]
		m.ring.push(pendingUpdate{info: pu.Info, snap: pu.Snap, taken: pu.Taken})
	}
	return nil
}

// SkipRecords advances src by n records — the positioning step before
// ResumeFrom when the caller rebuilt the source from scratch (a workload
// generator or a reopened trace file) rather than keeping the checkpointed
// run's source alive. It fails if the source runs dry or errors early: a
// short source cannot be the one the checkpoint came from.
func SkipRecords(src trace.Source, n int64) error {
	for i := int64(0); i < n; i++ {
		if _, ok := src.Next(); !ok {
			if err := trace.SourceErr(src); err != nil {
				return fmt.Errorf("sim: skipping %d records: source failed at %d: %w", n, i, err)
			}
			return fmt.Errorf("sim: skipping %d records: source dry at %d", n, i)
		}
	}
	return nil
}

// RunCheckpoint is Run plus a state capture at the stop point: it simulates
// p over src exactly like Run (same Result, same errors) and additionally
// returns the Checkpoint from which ResumeFrom continues bit-identically.
// The checkpoint is taken when the run stops cleanly — opts.MaxBranches
// reached or the source dry; a mid-stream source failure returns a nil
// checkpoint with the error. The predictor must implement
// predictor.Snapshotter (ErrNotSnapshottable otherwise).
func RunCheckpoint(p predictor.Predictor, src trace.Source, opts Options) (Result, *Checkpoint, error) {
	return run(p, src, opts, nil, true)
}

// ResumeFrom continues a checkpointed run: src must be positioned exactly
// ck.Records records into the same stream (keep the original source alive,
// or rebuild it and SkipRecords). The returned Result covers the WHOLE
// run — checkpointed prefix plus continuation — and is bit-identical to a
// straight-through Run with the same final options, including Stats under
// Options.Collect. opts must match the checkpoint's result-affecting
// options (mode, update delay, leniency, warmup); MaxBranches still counts
// raw conditional branches from the stream start, so extending a stopped
// run means raising it.
func ResumeFrom(p predictor.Predictor, src trace.Source, opts Options, ck *Checkpoint) (Result, error) {
	res, _, err := run(p, src, opts, ck, false)
	return res, err
}

// checkpointLabel fingerprints the serialized checkpoint container.
const checkpointLabel = "sim.Checkpoint/v1"

// MarshalBinary serializes the checkpoint into the repo's checksummed
// snapshot container (package snapshot), so an on-disk checkpoint carries
// the same integrity guarantees as the trace format: any truncation or
// bit flip surfaces as a typed error on load.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	e := snapshot.NewEncoder(checkpointLabel)
	e.String(ck.Predictor)
	e.Bool(ck.Mode.Compressed)
	e.Bool(ck.Mode.PathBit)
	e.Uint64(uint64(ck.Mode.DelayBlocks))
	e.Uint64(uint64(ck.UpdateDelay))
	e.Bool(ck.LenientFlow)
	e.Int64(ck.Warmup)
	e.Int64(ck.Records)
	e.Int64(ck.RawBranches)
	e.Int64(ck.Mispredicts)
	e.Int64(ck.Instructions)
	e.Bytes(ck.PredictorState)
	e.Uint64(uint64(len(ck.Trackers)))
	for _, ts := range ck.Trackers {
		e.Int64(int64(ts.Thread))
		e.Bytes(ts.State)
	}
	e.Uint64(uint64(len(ck.Pending)))
	for i := range ck.Pending {
		pu := &ck.Pending[i]
		e.Uint64(pu.Info.PC)
		e.Uint64(pu.Info.BlockPC)
		e.Uint64(pu.Info.Hist)
		e.Uint64(pu.Info.Path[0])
		e.Uint64(pu.Info.Path[1])
		e.Uint64(pu.Info.Path[2])
		e.Int64(int64(pu.Info.Thread))
		for k := 0; k < predictor.MaxSnapshotBanks; k++ {
			e.Uint64(pu.Snap.Idx[k])
		}
		e.Byte(pu.Snap.Preds)
		e.Bool(pu.Snap.Final)
		e.Bool(pu.Snap.Aux)
		e.Bool(pu.Taken)
	}
	return e.Finish(), nil
}

// UnmarshalBinary loads a checkpoint serialized by MarshalBinary. Every
// malformed input — truncation, bit flips, oversized length fields —
// returns an error wrapping snapshot.ErrBadSnapshot; the receiver is
// unchanged on error.
func (ck *Checkpoint) UnmarshalBinary(data []byte) error {
	d, err := snapshot.NewDecoder(data, checkpointLabel)
	if err != nil {
		return err
	}
	var out Checkpoint
	if out.Predictor, err = d.String(); err != nil {
		return err
	}
	if out.Mode.Compressed, err = d.Bool(); err != nil {
		return err
	}
	if out.Mode.PathBit, err = d.Bool(); err != nil {
		return err
	}
	delayBlocks, err := d.Uint64()
	if err != nil {
		return err
	}
	out.Mode.DelayBlocks = int(delayBlocks)
	updateDelay, err := d.Uint64()
	if err != nil {
		return err
	}
	out.UpdateDelay = int(updateDelay)
	if out.LenientFlow, err = d.Bool(); err != nil {
		return err
	}
	for _, v := range []*int64{&out.Warmup, &out.Records, &out.RawBranches, &out.Mispredicts, &out.Instructions} {
		if *v, err = d.Int64(); err != nil {
			return err
		}
	}
	if out.PredictorState, err = d.Bytes(); err != nil {
		return err
	}
	nTrackers, err := d.Uint64()
	if err != nil {
		return err
	}
	// Each tracker costs at least its length prefix; the decoder's own
	// length guard bounds the payload, this bounds the count.
	if nTrackers > uint64(d.Remaining()) {
		return fmt.Errorf("%w: tracker count %d exceeds payload", snapshot.ErrBadSnapshot, nTrackers)
	}
	for i := uint64(0); i < nTrackers; i++ {
		var ts TrackerCheckpoint
		thread, err := d.Int64()
		if err != nil {
			return err
		}
		ts.Thread = int(thread)
		if ts.State, err = d.Bytes(); err != nil {
			return err
		}
		out.Trackers = append(out.Trackers, ts)
	}
	nPending, err := d.Uint64()
	if err != nil {
		return err
	}
	if nPending > uint64(d.Remaining()) {
		return fmt.Errorf("%w: pending count %d exceeds payload", snapshot.ErrBadSnapshot, nPending)
	}
	for i := uint64(0); i < nPending; i++ {
		var pu PendingCheckpoint
		for _, v := range []*uint64{
			&pu.Info.PC, &pu.Info.BlockPC, &pu.Info.Hist,
			&pu.Info.Path[0], &pu.Info.Path[1], &pu.Info.Path[2],
		} {
			if *v, err = d.Uint64(); err != nil {
				return err
			}
		}
		thread, err := d.Int64()
		if err != nil {
			return err
		}
		pu.Info.Thread = int(thread)
		for k := 0; k < predictor.MaxSnapshotBanks; k++ {
			if pu.Snap.Idx[k], err = d.Uint64(); err != nil {
				return err
			}
		}
		if pu.Snap.Preds, err = d.Byte(); err != nil {
			return err
		}
		if pu.Snap.Final, err = d.Bool(); err != nil {
			return err
		}
		if pu.Snap.Aux, err = d.Bool(); err != nil {
			return err
		}
		if pu.Taken, err = d.Bool(); err != nil {
			return err
		}
		out.Pending = append(out.Pending, pu)
	}
	if err := d.Finish(); err != nil {
		return err
	}
	*ck = out
	return nil
}
