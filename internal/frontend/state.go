package frontend

import (
	"fmt"

	"ev8pred/internal/snapshot"
)

// stateLabel fingerprints the tracker snapshot payload.
const stateLabel = "frontend.Tracker/v1"

// SnapshotState serializes the tracker's mutable state — histories, delay
// line, path queue, flow position and in-progress block — so a run can be
// checkpointed mid-block and resumed bit-identically. Configuration (mode,
// leniency, thread tag, observer) is not serialized; the restoring tracker
// must be constructed identically, which RestoreState validates.
func (t *Tracker) SnapshotState() []byte {
	e := snapshot.NewEncoder(stateLabel)
	// Configuration fingerprint, validated on restore.
	e.Bool(t.mode.Compressed)
	e.Bool(t.mode.PathBit)
	e.Uint64(uint64(t.mode.DelayBlocks))

	e.Uint64(t.ghist.Value())
	e.Uint64(t.lg.Value())
	buf, head := t.lgDelay.State()
	e.Words(buf)
	e.Uint64(uint64(head))
	path := t.path.Snapshot()
	e.Uint64(path[0])
	e.Uint64(path[1])
	e.Uint64(path[2])

	e.Uint64(t.flowPC)
	e.Uint64(t.blockStart)
	e.Bool(t.started)
	e.Bool(t.blockHasCond)
	e.Uint64(uint64(t.blockCondCount))
	e.Uint64(t.blockLastPC)
	e.Bool(t.blockLastTaken)

	e.Int64(t.blocks)
	e.Int64(t.lgBits)
	e.Int64(t.condSeen)
	e.Int64(t.resyncs)
	return e.Finish()
}

// RestoreState replaces the tracker's mutable state with a snapshot taken
// from an identically-configured tracker. All state is decoded and
// validated before any field is touched: on error the tracker is unchanged.
func (t *Tracker) RestoreState(data []byte) error {
	d, err := snapshot.NewDecoder(data, stateLabel)
	if err != nil {
		return err
	}
	compressed := d.Bool()
	pathBit := d.Bool()
	delayBlocks := d.Uint64()
	ghist := d.Uint64()
	lg := d.Uint64()
	delayBuf := d.WordsExact(t.lgDelay.Depth() + 1)
	delayHead := d.Uint64()
	path := [3]uint64{d.Uint64(), d.Uint64(), d.Uint64()}
	flowPC := d.Uint64()
	blockStart := d.Uint64()
	started := d.Bool()
	blockHasCond := d.Bool()
	blockCondCount := d.Uint64()
	blockLastPC := d.Uint64()
	blockLastTaken := d.Bool()
	blocks := d.Int64()
	lgBits := d.Int64()
	condSeen := d.Int64()
	resyncs := d.Int64()
	if err := d.Finish(); err != nil {
		return err
	}
	if compressed != t.mode.Compressed || pathBit != t.mode.PathBit ||
		delayBlocks != uint64(t.mode.DelayBlocks) {
		return fmt.Errorf("%w: tracker snapshot mode {compressed=%v path=%v delay=%d} does not match %v",
			snapshot.ErrBadSnapshot, compressed, pathBit, delayBlocks, t.mode)
	}
	if delayHead >= uint64(len(delayBuf)) {
		return fmt.Errorf("%w: tracker delay head %d out of range [0,%d)",
			snapshot.ErrBadSnapshot, delayHead, len(delayBuf))
	}
	if blockCondCount > 8 {
		return fmt.Errorf("%w: tracker block cond count %d outside [0,8]",
			snapshot.ErrBadSnapshot, blockCondCount)
	}

	// The delay line is the one fallible write, so it goes first.
	if err := t.lgDelay.Restore(delayBuf, int(delayHead)); err != nil {
		return fmt.Errorf("%w: %v", snapshot.ErrBadSnapshot, err)
	}
	t.ghist.Set(ghist)
	t.lg.Set(lg)
	t.path.Restore(path)
	t.flowPC = flowPC
	t.blockStart = blockStart
	t.started = started
	t.blockHasCond = blockHasCond
	t.blockCondCount = int(blockCondCount)
	t.blockLastPC = blockLastPC
	t.blockLastTaken = blockLastTaken
	t.blocks = blocks
	t.lgBits = lgBits
	t.condSeen = condSeen
	t.resyncs = resyncs
	return nil
}
