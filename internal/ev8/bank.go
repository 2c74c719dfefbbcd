// Package ev8 implements the Alpha EV8 conditional branch predictor as the
// paper describes it (§5–§7): a 352 Kbit 2Bc-gskew predictor (package core)
// behind the hardware-constrained index functions of §7, 4-way
// bank-interleaved with the conflict-free bank-number computation of §6,
// and indexed by the EV8 information vector (three-fetch-blocks-old lghist
// plus path information, package frontend).
package ev8

import "ev8pred/internal/bitutil"

// NumPredictorBanks is the interleaving factor: the predictor is 4-way
// bank interleaved and each bank is single ported (§6).
const NumPredictorBanks = 4

// BankNumber implements the §6.2 bank-number computation. For an
// instruction fetch block A, it takes the address of Y (the fetch block
// TWO slots before A) and the bank number accessed by Z (the block
// immediately before A), and returns A's bank:
//
//	candidate = (y6, y5)
//	if candidate == bank(Z) { candidate = (y6, y5 XOR 1) }
//
// The computation needs only bits available one cycle before the predictor
// access ("two-block ahead"), and guarantees by construction that A and Z
// never collide on a bank — BanksConflictFree is the property test.
func BankNumber(yAddr uint64, zBank uint8) uint8 {
	cand := uint8(bitutil.Field(yAddr, 5, 2)) // (y6,y5)
	if cand == zBank&3 {
		cand ^= 1
	}
	return cand
}

// blockBank remembers the bank assigned to one fetch block.
type blockBank struct {
	addr uint64
	bank uint8
}

// bankSequencer tracks the running bank assignment across the dynamic
// fetch-block sequence. It must observe every completed fetch block (via
// Predictor.ObserveBlock or ObserveBlockLog, whose replay advances it) to
// mirror the hardware, which accesses the predictor for every block
// whether or not it contains branches.
type bankSequencer struct {
	// recent is a ring of the banks assigned to the last few blocks
	// (its length a power of two); predictions for a block may be
	// requested slightly after the block sequence has moved on, so
	// lookups go by block address.
	recent [8]blockBank
	head   int

	curAddr    uint64 // in-progress block address
	curBank    uint8
	prevAddr   uint64 // address of the block before the in-progress one (Z at completion time becomes Y)
	lastIssued uint8  // bank of the most recently completed block
	started    bool
}

// bankFor returns the bank assigned to the block at addr: the in-progress
// block, one of the recently completed ones, or (when the sequencer has
// not seen the block — e.g. the predictor is used without block
// observation) a stateless fallback on the block's own address bits.
func (s *bankSequencer) bankFor(addr uint64) uint8 {
	if s.started && addr == s.curAddr {
		return s.curBank
	}
	for i := 1; i <= len(s.recent); i++ {
		j := (s.head - i) & (len(s.recent) - 1)
		if s.recent[j].addr == addr {
			return s.recent[j].bank
		}
	}
	return uint8(bitutil.Field(addr, 5, 2))
}
