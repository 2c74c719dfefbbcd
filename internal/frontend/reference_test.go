package frontend

import (
	"fmt"

	"ev8pred/internal/history"
	"ev8pred/internal/trace"
)

// RefProcess is the record-at-a-time tracker the chunked Walk replaced,
// kept as the test-only reference of the walk differential
// (walk_test.go): it advances t over one record block by block, looping
// over every aligned boundary of a gap, and hands each completed block to
// onBlock as it completes.
func (t *Tracker) RefProcess(b trace.Branch, onBlock func(Block)) (history.Info, bool) {
	if !t.started {
		start := b.PC - uint64(b.Gap)*trace.InstrBytes
		t.flowPC = start
		t.blockStart = start
		t.started = true
	}
	if start := b.PC - uint64(b.Gap)*trace.InstrBytes; start != t.flowPC {
		if !t.lenient {
			panic(fmt.Sprintf("frontend: record PC %#x (gap %d) does not continue flow %#x (inconsistent trace)",
				b.PC, b.Gap, t.flowPC))
		}
		t.refCompleteBlock(start, onBlock)
		t.flowPC = start
		t.resyncs++
	}
	for t.flowPC < b.PC {
		regionEnd := (t.flowPC | (BlockBytes - 1)) + 1
		if regionEnd <= b.PC {
			t.refCompleteBlock(regionEnd, onBlock)
			t.flowPC = regionEnd
		} else {
			t.flowPC = b.PC
		}
	}

	var info history.Info
	isCond := b.Kind == trace.Cond
	if isCond {
		info = history.Info{
			PC:      b.PC,
			BlockPC: t.blockStart,
			Hist:    t.selectHist(),
			Path:    [3]uint64{t.path.Z(), t.path.Y(), t.path.X()},
			Thread:  t.threadTag,
		}
		t.condSeen++
		t.ghist.Shift(b.Taken)
		t.blockHasCond = true
		t.blockCondCount++
		t.blockLastPC = b.PC
		t.blockLastTaken = b.Taken
	}

	if b.Taken {
		t.refCompleteBlock(b.Target, onBlock)
		t.flowPC = b.Target
	} else {
		next := b.PC + trace.InstrBytes
		if next%BlockBytes == 0 {
			t.refCompleteBlock(next, onBlock)
		}
		t.flowPC = next
	}
	return info, isCond
}

// refCompleteBlock is the reference's block completion.
func (t *Tracker) refCompleteBlock(nextStart uint64, onBlock func(Block)) {
	if t.blockHasCond {
		t.lg.Shift(history.LGHistBit(t.blockLastPC, t.blockLastTaken, t.mode.PathBit))
		t.lgBits++
	}
	t.lgDelay.Push(t.lg.Value())
	onBlock(Block{
		Addr:          t.blockStart,
		Next:          nextStart,
		HasCond:       t.blockHasCond,
		CondCount:     t.blockCondCount,
		LastCondPC:    t.blockLastPC,
		LastCondTaken: t.blockLastTaken,
	})
	t.path.Push(t.blockStart)
	t.blocks++
	t.blockStart = nextStart
	t.blockHasCond = false
	t.blockCondCount = 0
}
