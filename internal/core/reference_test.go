package core

// The reference attribution update: the straightforward formulation the
// read-once, branch-free updateAtInstrumented replaced, kept for the
// attribution differential (TestInstrumentedUpdateMatchesReference). It
// reads the four prediction bits, then each bank's classical 2-bit state
// through Split.State, counts with one branch per condition, applies the
// policy through the shared applyUpdate, and re-reads every state after
// the write.

import (
	"ev8pred/internal/counter"
	"ev8pred/internal/predictor"
)

// ReferenceUpdateWith trains p at the snapshot's indices through the
// reference attribution update when collection is enabled, and through
// the plain path otherwise.
func ReferenceUpdateWith(p *Predictor, s predictor.Snapshot, taken bool) {
	pbim, p0, p1, pmeta := p.lookup(s.Idx)
	final, egskew := combine(pbim, p0, p1, pmeta)
	if p.st != nil {
		p.referenceUpdateAtInstrumented(s.Idx, pbim, p0, p1, pmeta, final, egskew, taken)
		return
	}
	p.applyUpdate(s.Idx, pbim, p0, p1, pmeta, final, egskew, taken)
}

// strong reports whether a classical 2-bit state has its hysteresis
// (strength) bit set in the split encoding.
func strong(s uint8) bool {
	return s == counter.StrongNotTaken || s == counter.StrongTaken
}

func (p *Predictor) referenceUpdateAtInstrumented(idx [NumBanks]uint64, pbim, p0, p1, pmeta, final, egskew, taken bool) {
	st := p.st
	var before [NumBanks]uint8
	for b := BIM; b < NumBanks; b++ {
		before[b] = p.banks[b].State(idx[b])
	}

	st.updates++
	misp := final != taken
	if misp {
		st.mispredicts++
	}
	for k, v := range [3]bool{pbim, p0, p1} {
		if v != taken {
			if misp {
				st.bankWrongOnMisp[k]++
			} else {
				st.bankWrongAbsorbed[k]++
			}
		}
	}
	if pbim != egskew {
		st.metaArbitrations++
		if pmeta {
			st.metaSelectVote++
		}
		if misp {
			st.metaLosses++
		} else {
			st.metaWins++
		}
	}
	switch {
	case !p.cfg.PartialUpdate:
		st.totalPolicy++
	case !misp && pbim == p0 && p0 == p1:
		st.correctNone++
	case !misp:
		st.correctStrengthen++
	case pbim != egskew:
		st.mispRetarget++
	default:
		st.mispFull++
	}

	p.applyUpdate(idx, pbim, p0, p1, pmeta, final, egskew, taken)

	for b := BIM; b < NumBanks; b++ {
		after := p.banks[b].State(idx[b])
		if (before[b] >= counter.WeakTaken) != (after >= counter.WeakTaken) {
			st.predFlips[b]++
		}
		if strong(before[b]) != strong(after) {
			st.hystFlips[b]++
		}
	}
}
