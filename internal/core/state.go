package core

// Checkpoint/resume state for the 2Bc-gskew machine
// (predictor.Snapshotter): the four banks' prediction and hysteresis
// arrays, their traffic counters, and the attribution counters. The bank
// sequencing state of the EV8 wrapper lives in package ev8; the core
// serializes only what it owns.

import (
	"fmt"
	"strings"

	"ev8pred/internal/predictor"
	"ev8pred/internal/snapshot"
)

var _ predictor.Snapshotter = (*Predictor)(nil)
var _ predictor.ConfigKeyer = (*Predictor)(nil)

const stateLabel = "2bcgskew/v1"

// fingerprint canonicalizes the bank geometry and update policy — enough
// to guarantee a snapshot only restores into a structurally identical
// machine. It deliberately ignores the index functions, so the EV8 wrapper
// (which supplies custom indexes but serializes its sequencer itself) can
// reuse the core's snapshot.
func (p *Predictor) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s|partial=%v|path=%v", p.name, p.cfg.PartialUpdate, p.cfg.UsePath)
	for bank := BIM; bank < NumBanks; bank++ {
		bc := p.cfg.Banks[bank]
		fmt.Fprintf(&b, "|%v=%d/%d/h%d", bank, bc.Entries, bc.HystEntries, bc.HistLen)
	}
	return b.String()
}

// ConfigKey implements predictor.ConfigKeyer. A caller-supplied IndexSet
// is an opaque function the key cannot capture, so such configurations
// return "" and are never cached (the EV8 wrapper keys itself).
func (p *Predictor) ConfigKey() string {
	if p.li == nil {
		return ""
	}
	return "2bcgskew|" + p.fingerprint()
}

// SnapshotState implements predictor.Snapshotter.
func (p *Predictor) SnapshotState() []byte {
	e := snapshot.NewEncoder(stateLabel)
	e.String(p.fingerprint())
	for b := BIM; b < NumBanks; b++ {
		s := p.banks[b]
		e.Words(s.PredArray().StateWords())
		e.Words(s.HystArray().StateWords())
		pw, hw, hr := s.Traffic()
		e.Int64(pw)
		e.Int64(hw)
		e.Int64(hr)
	}
	e.Bool(p.st != nil)
	if p.st != nil {
		for _, v := range p.st.fields() {
			e.Int64(*v)
		}
	}
	return e.Finish()
}

// RestoreState implements predictor.Snapshotter. The receiver is unchanged
// on error.
func (p *Predictor) RestoreState(data []byte) error {
	d, err := snapshot.NewDecoder(data, stateLabel)
	if err != nil {
		return err
	}
	fp := d.String()
	var (
		pred, hyst [NumBanks][]uint64
		traffic    [NumBanks][3]int64
	)
	for b := BIM; b < NumBanks; b++ {
		pred[b] = d.WordsExact(p.banks[b].PredArray().WordCount())
		hyst[b] = d.WordsExact(p.banks[b].HystArray().WordCount())
		traffic[b] = [3]int64{d.Int64(), d.Int64(), d.Int64()}
	}
	var st *coreStats
	if d.Bool() {
		st = &coreStats{}
		for _, v := range st.fields() {
			*v = d.Int64()
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if fp != p.fingerprint() {
		return fmt.Errorf("%w: snapshot of {%s} cannot restore into {%s}",
			snapshot.ErrBadSnapshot, fp, p.fingerprint())
	}
	for b := BIM; b < NumBanks; b++ {
		s := p.banks[b]
		if err := s.PredArray().LoadWords(pred[b]); err != nil {
			return fmt.Errorf("%w: %v bank: %v", snapshot.ErrBadSnapshot, b, err)
		}
		if err := s.HystArray().LoadWords(hyst[b]); err != nil {
			return fmt.Errorf("%w: %v bank: %v", snapshot.ErrBadSnapshot, b, err)
		}
		s.LoadTraffic(traffic[b][0], traffic[b][1], traffic[b][2])
	}
	p.st = st
	return nil
}

// fields enumerates every attribution counter in a fixed serialization
// order, shared by encode and decode so they can never drift apart.
func (st *coreStats) fields() []*int64 {
	out := []*int64{
		&st.updates, &st.mispredicts,
		&st.bankWrongOnMisp[0], &st.bankWrongOnMisp[1], &st.bankWrongOnMisp[2],
		&st.bankWrongAbsorbed[0], &st.bankWrongAbsorbed[1], &st.bankWrongAbsorbed[2],
		&st.metaArbitrations, &st.metaSelectVote, &st.metaWins, &st.metaLosses,
		&st.correctNone, &st.correctStrengthen, &st.mispRetarget, &st.mispFull, &st.totalPolicy,
	}
	for b := BIM; b < NumBanks; b++ {
		out = append(out, &st.predFlips[b])
	}
	for b := BIM; b < NumBanks; b++ {
		out = append(out, &st.hystFlips[b])
	}
	return out
}
