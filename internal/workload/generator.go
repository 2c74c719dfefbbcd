package workload

import (
	"fmt"
	"io"

	"ev8pred/internal/history"
	"ev8pred/internal/rng"
	"ev8pred/internal/trace"
)

// Generator interprets a synthetic program, emitting trace records until an
// instruction budget is exhausted. It implements trace.Source and is fully
// deterministic given the profile seed.
type Generator struct {
	prof   Profile
	prog   *program
	budget int64

	// execution state. Switch-case selection draws from its own stream
	// so dispatch density does not perturb the calibrated site-model
	// draws.
	r          *rng.PCG32
	rswitch    *rng.PCG32
	ghist      history.Register
	stack      []frame
	seqPos     int
	patPos     []int
	instr      int64
	lastNextPC uint64
	done       bool
}

// frameKind distinguishes the interpreter's stack frames.
type frameKind uint8

const (
	frameFunc frameKind = iota
	frameLoop
	frameIfBody
	frameSwitchCase
)

type frame struct {
	kind   frameKind
	stmts  []stmt
	pos    int
	remain int    // frameLoop: body executions remaining after this one
	loop   *stmt  // frameLoop: the owning loop statement
	fn     int    // frameFunc: function index
	retPC  uint64 // frameFunc: dynamic return target
	// frameSwitchCase: the case body's trailing jump.
	jumpPC     uint64
	jumpTarget uint64
}

// New builds the program for prof and returns a generator that emits
// records until instrBudget instructions have been executed.
// instrBudget <= 0 means unbounded (callers must impose their own limit).
func New(prof Profile, instrBudget int64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	prog := buildProgram(prof)
	return &Generator{
		prof:       prof,
		prog:       prog,
		budget:     instrBudget,
		r:          rng.New(prof.Seed, streamExec),
		rswitch:    rng.New(prof.Seed, streamExec+1),
		patPos:     make([]int, prog.numSites),
		lastNextPC: prog.driverStart,
	}, nil
}

// MustNew is New but panics on error; for the fixed built-in profiles.
func MustNew(prof Profile, instrBudget int64) *Generator {
	g, err := New(prof, instrBudget)
	if err != nil {
		panic(err)
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// StaticSites returns the number of conditional branch sites in the program.
func (g *Generator) StaticSites() int { return g.prog.numSites }

// NextBatch implements trace.Source: it interprets records directly into
// the caller's buffer, field by field, so no record is copied. A
// synthetic stream cannot fail, so the only terminal condition is the
// budget running out (io.EOF).
func (g *Generator) NextBatch(dst []trace.Branch) (int, error) {
	if g.done {
		return 0, io.EOF
	}
	for i := range dst {
		if g.done {
			return i, nil
		}
		g.step(&dst[i])
	}
	return len(dst), nil
}

// emit writes the record at pc into b, every field: the gap is the real
// address distance from the previous control transfer's successor, which
// is what makes the front-end flow reconstruction exact. It charges the
// record to the budget. Writing through b rather than returning a
// literal spares NextBatch a copy whose wide loads could not forward from
// the narrow stores that built it.
func (g *Generator) emit(b *trace.Branch, pc, target uint64, taken bool, kind trace.Kind) {
	if pc < g.lastNextPC {
		panic(fmt.Sprintf("workload: layout regression: pc %#x < flow %#x", pc, g.lastNextPC))
	}
	gap := int((pc - g.lastNextPC) / trace.InstrBytes)
	b.PC, b.Target, b.Taken, b.Gap, b.Kind, b.Thread = pc, target, taken, gap, kind, 0
	g.lastNextPC = b.NextPC()
	g.instr += int64(gap) + 1
	if g.budget > 0 && g.instr >= g.budget {
		g.done = true
	}
}

// step advances the interpreter until exactly one record is produced,
// into b.
func (g *Generator) step(b *trace.Branch) {
	for {
		if len(g.stack) == 0 {
			// Driver loop.
			slot := g.seqPos
			g.seqPos++
			if slot == len(g.prog.callSeq) {
				// Wrap: unconditional jump back to the driver start.
				g.seqPos = 0
				g.emit(b, g.prog.jumpPC, g.prog.driverStart, true, trace.Jump)
				return
			}
			fn := g.prog.callSeq[slot]
			callPC := g.prog.callPCs[slot]
			f := &g.prog.funcs[fn]
			g.stack = append(g.stack, frame{
				kind:  frameFunc,
				stmts: f.body,
				fn:    fn,
				retPC: callPC + trace.InstrBytes,
			})
			g.emit(b, callPC, f.entry, true, trace.Call)
			return
		}

		f := &g.stack[len(g.stack)-1]
		if f.pos >= len(f.stmts) {
			switch f.kind {
			case frameLoop:
				s := f.loop
				if f.remain > 0 {
					f.remain--
					f.pos = 0
					g.ghist.Shift(true)
					g.emit(b, s.branchPC, s.target, true, trace.Cond)
					return
				}
				g.stack = g.stack[:len(g.stack)-1]
				g.ghist.Shift(false)
				g.emit(b, s.branchPC, s.target, false, trace.Cond)
				return
			case frameFunc:
				fn := &g.prog.funcs[f.fn]
				ret := f.retPC
				g.stack = g.stack[:len(g.stack)-1]
				g.emit(b, fn.retPC, ret, true, trace.Return)
				return
			case frameSwitchCase:
				pc, tgt := f.jumpPC, f.jumpTarget
				g.stack = g.stack[:len(g.stack)-1]
				g.emit(b, pc, tgt, true, trace.Jump)
				return
			default: // frameIfBody
				g.stack = g.stack[:len(g.stack)-1]
				continue
			}
		}

		s := &f.stmts[f.pos]
		f.pos++
		switch s.kind {
		case stmtLoop:
			trip := s.trip.draw(g.r)
			g.stack = append(g.stack, frame{
				kind:   frameLoop,
				stmts:  s.body,
				loop:   s,
				remain: trip - 1,
			})
			// No record yet; the body runs, then the back edge emits.
		case stmtIf:
			taken := s.model.eval(g.r, g.ghist.Value(), &g.patPos[s.siteID])
			g.ghist.Shift(taken)
			if !taken && len(s.body) > 0 {
				g.stack = append(g.stack, frame{kind: frameIfBody, stmts: s.body})
			}
			g.emit(b, s.branchPC, s.target, taken, trace.Cond)
			return
		case stmtSwitch:
			// Skewed dispatch: a hot case plus a uniform tail.
			c := 0
			if !g.rswitch.Bool(s.caseBias) && len(s.caseAddrs) > 1 {
				c = 1 + g.rswitch.Intn(len(s.caseAddrs)-1)
			}
			g.stack = append(g.stack, frame{
				kind:       frameSwitchCase,
				jumpPC:     s.caseJumpPCs[c],
				jumpTarget: s.join,
			})
			g.emit(b, s.branchPC, s.caseAddrs[c], true, trace.Jump)
			return
		}
	}
}
