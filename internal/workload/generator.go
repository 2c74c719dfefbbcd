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
	patPos     []uint8 // per if-site pattern cursor, by stmt.ref
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

// frame is one open body of the interpreter: the statements
// prog.stmts[pos:hi] are still to run. A loop, function or switch-case
// frame ends with one record, from pc to target; an if-body frame ends
// with none.
type frame struct {
	pc, target uint64
	pos, hi    int32
	lo         int32 // frameLoop: body start, where each iteration restarts
	remain     int32 // frameLoop: body executions remaining after this one
	kind       frameKind
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
		patPos:     make([]uint8, len(prog.models)),
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
func (g *Generator) StaticSites() int { return len(g.prog.models) + len(g.prog.trips) }

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
			callPC := g.prog.callPCs[slot]
			fn := &g.prog.funcs[g.prog.callSeq[slot]]
			g.stack = append(g.stack, frame{
				kind:   frameFunc,
				pos:    fn.lo,
				hi:     fn.hi,
				pc:     fn.retPC,
				target: callPC + trace.InstrBytes,
			})
			g.emit(b, callPC, fn.entry, true, trace.Call)
			return
		}

		f := &g.stack[len(g.stack)-1]
		if f.pos >= f.hi {
			if f.kind == frameLoop && f.remain > 0 {
				f.remain--
				f.pos = f.lo
				g.ghist.Shift(true)
				g.emit(b, f.pc, f.target, true, trace.Cond)
				return
			}
			pc, target, kind := f.pc, f.target, f.kind
			g.stack = g.stack[:len(g.stack)-1]
			switch kind {
			case frameLoop:
				g.ghist.Shift(false)
				g.emit(b, pc, target, false, trace.Cond)
			case frameFunc:
				g.emit(b, pc, target, true, trace.Return)
			case frameSwitchCase:
				g.emit(b, pc, target, true, trace.Jump)
			default: // frameIfBody
				continue
			}
			return
		}

		s := &g.prog.stmts[f.pos]
		f.pos++
		switch s.kind {
		case stmtLoop:
			trip := g.prog.trips[s.ref].draw(g.r)
			g.stack = append(g.stack, frame{
				kind:   frameLoop,
				pos:    s.lo,
				lo:     s.lo,
				hi:     s.hi,
				remain: int32(trip - 1),
				pc:     s.branchPC,
				target: s.target,
			})
			// No record yet; the body runs, then the back edge emits.
		case stmtIf:
			taken := g.prog.models[s.ref].eval(g.r, g.ghist.Value(), &g.patPos[s.ref])
			g.ghist.Shift(taken)
			if !taken && s.hi > s.lo {
				g.stack = append(g.stack, frame{kind: frameIfBody, pos: s.lo, hi: s.hi})
			}
			g.emit(b, s.branchPC, s.target, taken, trace.Cond)
			return
		case stmtSwitch:
			// Skewed dispatch: a hot case plus a uniform tail.
			sw := &g.prog.switches[s.ref]
			c := sw.lo
			if n := int(sw.hi - sw.lo); !g.rswitch.Bool(sw.bias) && n > 1 {
				c += int32(1 + g.rswitch.Intn(n-1))
			}
			cs := &g.prog.cases[c]
			g.stack = append(g.stack, frame{
				kind:   frameSwitchCase,
				pc:     cs.jumpPC,
				target: sw.join,
			})
			g.emit(b, s.branchPC, cs.addr, true, trace.Jump)
			return
		}
	}
}
