package core

// Component attribution for 2Bc-gskew (stats.Instrumented): per-bank vote
// outcomes on mispredictions, metapredictor arbitration wins/losses,
// partial-vs-full update classification, and per-bank counter-state flips
// as an aliasing-pressure estimate. This is the measurement substrate the
// paper's §4 arguments are made of: which bank costs a misprediction, how
// often the chooser saves the day, and how much write traffic the partial
// update policy avoids.
//
// Everything here runs only when EnableStats(true) was called; the plain
// update path pays a single nil check (see updateAt). Attribution never
// changes a prediction or a counter write.
//
// The instrumented update runs at the batch kernel's pace: each bank's
// prediction and hysteresis bits are read once before the write and once
// after it (counter.Split.Bits), the votes come from the kernel's
// bit-parallel majority and arbitration expressions, and every counter is
// added as a 0/1 word with no branch on the data. On a shared 2-vCPU
// Xeon VM that halved the cost of collection, from ~78 to ~40 ns per
// member-branch at update delay 8 (docs/OBSERVABILITY.md;
// docs/PERFORMANCE.md, "Attribution at kernel speed").

import "ev8pred/internal/stats"

// coreStats accumulates the attribution counters. Votes are observed at
// update time, against update-time counter state — identical to the
// prediction-time votes under immediate update (nothing trains between
// Lookup and UpdateWith), and the honest hardware-eye view under commit
// delay, where an aliased entry may have been retrained in between.
type coreStats struct {
	updates     int64
	mispredicts int64

	// Per voting bank (BIM, G0, G1): voted against the outcome on a
	// final misprediction / voted wrong but the combination absorbed it.
	bankWrongOnMisp   [3]int64
	bankWrongAbsorbed [3]int64

	// Metapredictor arbitration: counted only when BIM and the e-gskew
	// majority disagree, i.e. when Meta's choice decides the prediction.
	metaArbitrations int64
	metaSelectVote   int64
	metaWins         int64
	metaLosses       int64

	// Update-kind classification (§4.2): Rationale-1 no-op, correct
	// strengthen-only, misprediction with chooser retarget attempt,
	// misprediction training all banks, and the total-update ablation.
	correctNone       int64
	correctStrengthen int64
	mispRetarget      int64
	mispFull          int64
	totalPolicy       int64

	// Counter-state transitions per bank, from before/after snapshots of
	// the touched entries: a prediction-bit flip means an entry was
	// dragged to the other direction (the destructive-aliasing signature
	// of §4.1), a hysteresis flip is the §4.3–4.4 shared-bit churn.
	predFlips [NumBanks]int64
	hystFlips [NumBanks]int64
}

// EnableStats implements stats.Instrumented. Enabling allocates the
// counter block once; disabling drops it (and its counts).
func (p *Predictor) EnableStats(on bool) {
	switch {
	case on && p.st == nil:
		p.st = &coreStats{}
	case !on:
		p.st = nil
	}
}

// updateAtInstrumented is the attribution twin of the plain update path.
// It reads each bank's prediction and hysteresis bits once, derives the
// votes with the batch kernel's bit-parallel expressions, and adds every
// counter as a 0/1 word — no branch on the data, only the update-policy
// test, which is configuration. It then applies the identical policy
// writes through applyUpdate and diffs each bank's two bits after the
// write against the bits before it for flip accounting.
func (p *Predictor) updateAtInstrumented(idx [NumBanks]uint64, taken bool) {
	st := p.st
	var pred, hyst [NumBanks]uint64
	for b := BIM; b < NumBanks; b++ {
		pred[b], hyst[b] = p.banks[b].Bits(idx[b])
	}
	pb, p0, p1, pm := pred[BIM], pred[G0], pred[G1], pred[Meta]
	maj := pb&p0 | pb&p1 | p0&p1
	fin := pm&maj | (pm^1)&pb
	var tk uint64
	if taken {
		tk = 1
	}
	misp := fin ^ tk
	hit := misp ^ 1

	st.updates++
	st.mispredicts += int64(misp)
	for k := range st.bankWrongOnMisp {
		wrong := pred[k] ^ tk
		st.bankWrongOnMisp[k] += int64(wrong & misp)
		st.bankWrongAbsorbed[k] += int64(wrong & hit)
	}
	// arb is set when BIM and the e-gskew majority disagree: Meta's vote
	// decided the prediction, and since the chosen side IS the final
	// prediction, a loss is a misprediction the other component would
	// have avoided.
	arb := pb ^ maj
	st.metaArbitrations += int64(arb)
	st.metaSelectVote += int64(arb & pm)
	st.metaLosses += int64(arb & misp)
	st.metaWins += int64(arb & hit)
	if p.cfg.PartialUpdate {
		// Rationale 1: all three agree. (In Go ^ and | bind equally
		// tightly, hence the parentheses.)
		agree := ((pb ^ p0) | (p0 ^ p1)) ^ 1
		st.correctNone += int64(hit & agree)
		st.correctStrengthen += int64(hit &^ agree)
		st.mispRetarget += int64(misp & arb)
		st.mispFull += int64(misp &^ arb)
	} else {
		st.totalPolicy++
	}

	p.applyUpdate(idx, pb == 1, p0 == 1, p1 == 1, pm == 1, fin == 1, maj == 1, taken)

	for b := BIM; b < NumBanks; b++ {
		np, nh := p.banks[b].Bits(idx[b])
		st.predFlips[b] += int64(np ^ pred[b])
		st.hystFlips[b] += int64(nh ^ hyst[b])
	}
}

// votingBanks are the banks whose direction bit participates in the
// prediction (Meta arbitrates, it does not vote a direction).
var votingBanks = [3]Bank{BIM, G0, G1}

// Stats implements stats.Instrumented: a stable-order snapshot of the
// attribution counters, nil when collection is disabled. The per-bank
// write/read traffic (counter.Split's unconditional accounting) rides
// along so one snapshot carries the full §4.3 traffic argument.
func (p *Predictor) Stats() stats.Counters {
	if p.st == nil {
		return nil
	}
	st := p.st
	cs := make(stats.Counters, 0, 48)
	cs.Add("updates", st.updates)
	cs.Add("mispredicts", st.mispredicts)
	for k, b := range votingBanks {
		cs.Add("bank_wrong_on_misp_"+b.String(), st.bankWrongOnMisp[k])
	}
	cs.Add("bank_wrong_on_misp_Meta", st.metaLosses)
	for k, b := range votingBanks {
		cs.Add("bank_wrong_absorbed_"+b.String(), st.bankWrongAbsorbed[k])
	}
	cs.Add("meta_arbitrations", st.metaArbitrations)
	cs.Add("meta_select_vote", st.metaSelectVote)
	cs.Add("meta_select_bim", st.metaArbitrations-st.metaSelectVote)
	cs.Add("meta_overrule_wins", st.metaWins)
	cs.Add("meta_overrule_losses", st.metaLosses)
	cs.Add("update_correct_none", st.correctNone)
	cs.Add("update_correct_strengthen", st.correctStrengthen)
	cs.Add("update_misp_retarget", st.mispRetarget)
	cs.Add("update_misp_full", st.mispFull)
	cs.Add("update_total_policy", st.totalPolicy)
	for b := BIM; b < NumBanks; b++ {
		n := b.String()
		cs.Add("pred_flips_"+n, st.predFlips[b])
		cs.Add("hyst_flips_"+n, st.hystFlips[b])
	}
	for b := BIM; b < NumBanks; b++ {
		pw, hw, hr := p.banks[b].Traffic()
		n := b.String()
		cs.Add("pred_writes_"+n, pw)
		cs.Add("hyst_writes_"+n, hw)
		cs.Add("hyst_reads_"+n, hr)
	}
	return cs
}

var _ stats.Instrumented = (*Predictor)(nil)
