package ev8

import (
	"bytes"
	"math/rand"
	"testing"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
)

// refObserve is the block-at-a-time sequencer and §6 counter update the
// replay loop replaced, kept as its test-only reference.
func (p *Predictor) refObserve(addr, next uint64, conds int) {
	s := &p.seq
	if !s.started || addr != s.curAddr {
		s.curAddr = addr
		s.curBank = BankNumber(s.prevAddr, s.lastIssued)
		s.started = true
	}
	bank := s.curBank
	s.lastIssued = bank
	s.recent[s.head] = blockBank{addr: s.curAddr, bank: bank}
	s.head = (s.head + 1) % len(s.recent)
	nextBank := BankNumber(s.prevAddr, s.curBank)
	s.prevAddr = s.curAddr
	s.curAddr = next
	s.curBank = nextBank

	p.bankUse[bank&3]++
	p.blocksSeen++
	if p.lastBank >= 0 && int16(bank) == p.lastBank {
		p.bankConflicts++
	}
	p.lastBank = int16(bank)
	p.lastAddr = addr
	p.cycleConds += conds
	p.cycleSlot++
	if p.cycleSlot == 2 {
		if p.cycleConds > 16 {
			p.cycleConds = 16
		}
		p.condsPerCycle[p.cycleConds]++
		p.cycles++
		p.cycleSlot = 0
		p.cycleConds = 0
	}
}

// TestReplayMatchesReferenceSequencer feeds random block logs — single
// blocks that continue or break the flow, runs of empty blocks, branches
// marked anywhere — to ObserveBlockLog and, block by block, to the
// reference: the captured banks must equal the reference's bankFor at
// each mark, and the predictor state must serialize identically.
func TestReplayMatchesReferenceSequencer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got, ref := MustNew(DefaultConfig()), MustNew(DefaultConfig())
	var recent []uint64 // addresses a branch's block may have
	addr := uint64(0x8000)
	for chunk := 0; chunk < 300; chunk++ {
		var log frontend.BlockLog
		var infos []history.Info
		var want []uint8
		mark := func() {
			pc := recent[len(recent)-1-rng.Intn(min(len(recent), 10))]
			if rng.Intn(20) == 0 {
				pc = uint64(rng.Intn(1<<16)) << 5 // seen nowhere: the fallback
			}
			log.Marks = append(log.Marks, int32(len(log.Entries)))
			infos = append(infos, history.Info{BlockPC: pc})
			want = append(want, ref.seq.bankFor(pc))
		}
		for n := rng.Intn(40); n > 0; n-- {
			for rng.Intn(3) == 0 && len(recent) > 0 {
				mark()
			}
			e := frontend.LogEntry{Addr: addr, Conds: uint8(rng.Intn(9))}
			if rng.Intn(4) == 0 { // a run of empty blocks
				e.Conds, e.Run = 0, true
				e.Next = (addr | (frontend.BlockBytes - 1)) + 1 + uint64(rng.Intn(6))*frontend.BlockBytes
				for a := addr; a < e.Next; a = (a | (frontend.BlockBytes - 1)) + 1 {
					ref.refObserve(a, (a|(frontend.BlockBytes-1))+1, 0)
					recent = append(recent, a)
				}
			} else {
				e.Next = uint64(rng.Intn(1<<16)) << 2
				ref.refObserve(e.Addr, e.Next, int(e.Conds))
				recent = append(recent, addr)
			}
			addr = e.Next
			if rng.Intn(4) == 0 { // the next block breaks the flow
				addr = uint64(rng.Intn(1<<16)) << 2
			}
			log.Entries = append(log.Entries, e)
		}
		if len(recent) > 0 && rng.Intn(2) == 0 {
			mark()
		}
		banks := make([]uint8, len(infos))
		got.ObserveBlockLog(&log, infos, banks)
		if !bytes.Equal(banks, want) {
			t.Fatalf("chunk %d: banks %v, reference %v", chunk, banks, want)
		}
		if !bytes.Equal(got.SnapshotState(), ref.SnapshotState()) {
			t.Fatalf("chunk %d: predictor state diverges from the reference", chunk)
		}
	}
	if got.BlocksObserved() == 0 || got.Cycles() == 0 {
		t.Fatal("no blocks sequenced")
	}
}
