package ev8

// Checkpoint/resume state for the EV8 predictor (predictor.Snapshotter):
// the inner 2Bc-gskew machine's snapshot is nested verbatim, followed by
// everything the wrapper owns — the two-block-ahead bank sequencer, the
// in-flight prediction-snapshot ring, and the §6 scheduling/cycle
// observations. The sequencer state matters for bit-identical resume: the
// §7 index functions consult it, so a resumed run must see the exact
// sequencing position the checkpointed run had.

import (
	"fmt"

	"ev8pred/internal/predictor"
	"ev8pred/internal/snapshot"
)

const stateLabel = "ev8/v1"

// ConfigKey implements predictor.ConfigKeyer. The EV8 configuration space
// is (index options, update policy, name); the core geometry is fixed by
// ConfigEV8Size.
func (p *Predictor) ConfigKey() string {
	return fmt.Sprintf("ev8|addrWL=%v|partial=%v|name=%s",
		p.idxOpts.AddressOnlyWordline, p.partial, p.name)
}

// SnapshotState implements predictor.Snapshotter.
func (p *Predictor) SnapshotState() []byte {
	e := snapshot.NewEncoder(stateLabel)
	e.String(p.ConfigKey())
	e.Bytes(p.core.SnapshotState())

	// Bank sequencer.
	s := &p.seq
	for i := range s.recent {
		e.Uint64(s.recent[i].addr)
		e.Byte(s.recent[i].bank)
	}
	e.Uint64(uint64(s.head))
	e.Uint64(s.curAddr)
	e.Byte(s.curBank)
	e.Uint64(s.prevAddr)
	e.Byte(s.lastIssued)
	e.Bool(s.started)

	// In-flight prediction snapshots, oldest first.
	e.Uint64(uint64(p.pending.n))
	for i := 0; i < p.pending.n; i++ {
		ent := &p.pending.buf[(p.pending.tail+i)%snapRingDepth]
		predictor.EncodePair(e, ent.info, ent.snap)
	}

	// Scheduling and fetch-cycle observations.
	e.Int64(p.blocksSeen)
	e.Int64(p.bankConflicts)
	e.Int64(int64(p.lastBank))
	e.Uint64(p.lastAddr)
	for k := range p.bankUse {
		e.Int64(p.bankUse[k])
	}
	e.Int64(p.cycles)
	e.Uint64(uint64(p.cycleSlot))
	e.Uint64(uint64(p.cycleConds))
	for k := range p.condsPerCycle {
		e.Int64(p.condsPerCycle[k])
	}
	return e.Finish()
}

// RestoreState implements predictor.Snapshotter. All state — including the
// nested core restore — is decoded and validated before anything is
// committed; the receiver is unchanged on error.
func (p *Predictor) RestoreState(data []byte) error {
	d, err := snapshot.NewDecoder(data, stateLabel)
	if err != nil {
		return err
	}
	key := d.String()
	coreBytes := d.Bytes()

	var seq bankSequencer
	for i := range seq.recent {
		seq.recent[i] = blockBank{addr: d.Uint64(), bank: d.Byte()}
	}
	head := d.Uint64()
	seq.curAddr = d.Uint64()
	seq.curBank = d.Byte()
	seq.prevAddr = d.Uint64()
	seq.lastIssued = d.Byte()
	seq.started = d.Bool()

	nPending := d.Uint64()
	if nPending > snapRingDepth {
		return fmt.Errorf("%w: %d pending snapshots exceed ring depth %d",
			snapshot.ErrBadSnapshot, nPending, snapRingDepth)
	}
	ring := snapRing{n: int(nPending)}
	for i := 0; i < ring.n; i++ {
		ring.buf[i].info, ring.buf[i].snap = predictor.DecodePair(d)
	}

	blocksSeen := d.Int64()
	bankConflicts := d.Int64()
	lastBank := d.Int64()
	lastAddr := d.Uint64()
	var bankUse [NumPredictorBanks]int64
	for k := range bankUse {
		bankUse[k] = d.Int64()
	}
	cycles := d.Int64()
	cycleSlot := d.Uint64()
	cycleConds := d.Uint64()
	var condsPerCycle [17]int64
	for k := range condsPerCycle {
		condsPerCycle[k] = d.Int64()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if key != p.ConfigKey() {
		return fmt.Errorf("%w: snapshot of %q cannot restore into %q",
			snapshot.ErrBadSnapshot, key, p.ConfigKey())
	}
	if head >= uint64(len(seq.recent)) {
		return fmt.Errorf("%w: sequencer head %d out of range [0,%d)",
			snapshot.ErrBadSnapshot, head, len(seq.recent))
	}
	seq.head = int(head)
	if lastBank < -1 || lastBank >= NumPredictorBanks {
		return fmt.Errorf("%w: last bank %d out of range [-1,%d)",
			snapshot.ErrBadSnapshot, lastBank, NumPredictorBanks)
	}
	if cycleSlot > 1 || cycleConds > 16 {
		return fmt.Errorf("%w: cycle state slot=%d conds=%d out of range",
			snapshot.ErrBadSnapshot, cycleSlot, cycleConds)
	}

	// Commit point: the core restore is the last fallible step.
	if err := p.core.RestoreState(coreBytes); err != nil {
		return err
	}
	p.seq = seq
	p.pending = ring
	p.blocksSeen = blocksSeen
	p.bankConflicts = bankConflicts
	p.lastBank = int16(lastBank)
	p.lastAddr = lastAddr
	p.bankUse = bankUse
	p.cycles = cycles
	p.cycleSlot = int(cycleSlot)
	p.cycleConds = int(cycleConds)
	p.condsPerCycle = condsPerCycle
	return nil
}

var _ predictor.Snapshotter = (*Predictor)(nil)
var _ predictor.ConfigKeyer = (*Predictor)(nil)
