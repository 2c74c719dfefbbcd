package ev8

import (
	"fmt"

	"ev8pred/internal/core"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
)

// Config parameterizes the EV8 predictor build.
type Config struct {
	// Index selects index-function variants (Figure 9 ablations).
	Index IndexOptions
	// PartialUpdate selects the §4.2 update policy (the EV8 default).
	PartialUpdate bool
	// Name overrides the derived report name.
	Name string
}

// DefaultConfig is the as-shipped Alpha EV8 predictor configuration.
func DefaultConfig() Config {
	return Config{PartialUpdate: true}
}

// Predictor is the Alpha EV8 conditional branch predictor: the Table 1
// 2Bc-gskew machine behind the §7 hardware index functions and the §6
// bank-interleaving discipline. It expects the EV8 information vector
// (frontend.ModeEV8: three-blocks-old lghist with path information) and,
// to mirror the hardware exactly, wants to observe every completed fetch
// block via ObserveBlock (package sim wires this automatically).
type Predictor struct {
	core    *core.Predictor
	seq     bankSequencer
	lin     *linearIndex
	pending snapRing
	name    string
	idxOpts IndexOptions
	partial bool

	// bank-scheduling statistics for the §6 conflict-freedom checks
	blocksSeen    int64
	bankConflicts int64
	lastBank      int16
	lastAddr      uint64
	bankUse       [NumPredictorBanks]int64

	// fetch-cycle model: the EV8 fetches up to two blocks per cycle
	// (§2), so up to 16 conditional branches are predicted per cycle.
	cycles        int64
	cycleSlot     int // blocks already fetched this cycle (0 or 1)
	cycleConds    int // conditional branches accumulated this cycle
	condsPerCycle [17]int64
}

// New builds the EV8 predictor.
func New(cfg Config) (*Predictor, error) {
	p := &Predictor{lastBank: -1, idxOpts: cfg.Index, partial: cfg.PartialUpdate,
		lin: cfg.Index.linear()}
	coreCfg := core.ConfigEV8Size()
	coreCfg.PartialUpdate = cfg.PartialUpdate
	coreCfg.Indexes = newIndexSet(&p.seq, p.lin)
	coreCfg.Name = cfg.Name
	if coreCfg.Name == "" {
		coreCfg.Name = "EV8-352Kbit"
		if cfg.Index.AddressOnlyWordline {
			coreCfg.Name += "-addrWL"
		}
	}
	c, err := core.New(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("ev8: %w", err)
	}
	p.core = c
	p.name = coreCfg.Name
	return p, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ObserveBlock implements the sim.BlockObserver wiring: the hardware
// accesses the predictor for every fetch block, so the bank sequencer
// advances on every block, branches or not. It is the one-block case of
// ObserveBlockLog.
func (p *Predictor) ObserveBlock(b frontend.Block) {
	p.replay([]frontend.LogEntry{{Addr: b.Addr, Next: b.Next, Conds: uint8(b.CondCount)}}, nil, nil, nil)
}

// replay sequences every block of entries, in order: the §6.2 bank
// sequencer, which assigns each block its bank two blocks ahead, and the
// §6 observations — bank use, the audit that two dynamically successive
// blocks never share a bank, and the two-block fetch cycles. Once the
// first marks[k] entries are sequenced it captures banks[k], the bank of
// the block at infos[k].BlockPC. The sequencer state one block hands the
// next is held in locals for the whole replay.
func (p *Predictor) replay(entries []frontend.LogEntry, marks []int32, infos []history.Info, banks []uint8) {
	s := &p.seq
	cur, curBank, prev, issued, head := s.curAddr, s.curBank, s.prevAddr, s.lastIssued, s.head
	k := 0
	for e := 0; ; e++ {
		for ; k < len(marks) && int(marks[k]) == e; k++ {
			// bankFor inlined for the two cases a thread's own flow
			// produces: the branch's block is in progress, or its record
			// just completed it. Only the rare lookup leaves the loop.
			bpc, last := infos[k].BlockPC, &s.recent[(head-1)&(len(s.recent)-1)]
			switch {
			case s.started && bpc == cur:
				banks[k] = curBank
			case bpc == last.addr:
				banks[k] = last.bank
			default:
				s.curAddr, s.curBank, s.head = cur, curBank, head
				banks[k] = s.bankFor(bpc)
			}
		}
		if e == len(entries) {
			break
		}
		en := &entries[e]
		for addr := en.Addr; ; {
			next := en.Next
			if en.Run {
				next = (addr | (frontend.BlockBytes - 1)) + 1
			}
			if addr != cur || !s.started {
				// Cold start or resynchronization (e.g. an SMT thread
				// switch): adopt the block with a bank guaranteed to
				// differ from the most recently issued one, preserving
				// the §6.2 invariant.
				cur, curBank, s.started = addr, BankNumber(prev, issued), true
			}
			// Record the block's bank, and compute the next block's two
			// blocks ahead: this block's predecessor plays Y, this
			// block's bank plays bank(Z).
			bank := curBank
			s.recent[head] = blockBank{addr: cur, bank: bank}
			head = (head + 1) & (len(s.recent) - 1)
			prev, cur, curBank, issued = cur, next, BankNumber(prev, bank), bank
			p.count(addr, bank, int(en.Conds))
			if next >= en.Next {
				break
			}
			addr = next
		}
	}
	s.curAddr, s.curBank, s.prevAddr, s.lastIssued, s.head = cur, curBank, prev, issued, head
}

// count records the §6 observations of one block at addr, assigned bank,
// holding conds conditional branches.
func (p *Predictor) count(addr uint64, bank uint8, conds int) {
	p.bankUse[bank&3]++
	p.blocksSeen++
	if p.lastBank >= 0 && int16(bank) == p.lastBank {
		p.bankConflicts++
	}
	p.lastBank, p.lastAddr = int16(bank), addr
	// Fetch-cycle pairing: two dynamically successive blocks share a
	// cycle; the §6.2 bank discipline is exactly what makes the paired
	// accesses conflict-free on single-ported banks. Count the
	// conditional branches predicted in each cycle (up to 8+8 = 16).
	p.cycleConds += conds
	if p.cycleSlot++; p.cycleSlot == 2 {
		p.condsPerCycle[min(p.cycleConds, 16)]++
		p.cycles++
		p.cycleSlot, p.cycleConds = 0, 0
	}
}

// Cycles returns the number of two-block fetch cycles modeled.
func (p *Predictor) Cycles() int64 { return p.cycles }

// CondsPerCycleHistogram returns how many cycles predicted k conditional
// branches, k = 0..16.
func (p *Predictor) CondsPerCycleHistogram() [17]int64 { return p.condsPerCycle }

// BankConflicts returns the number of successive-block bank collisions
// observed (must be zero; exposed so integration tests can prove it).
func (p *Predictor) BankConflicts() int64 { return p.bankConflicts }

// BlocksObserved returns the number of fetch blocks sequenced.
func (p *Predictor) BlocksObserved() int64 { return p.blocksSeen }

// BankUse returns per-bank access counts (for the §7.2 uniformity checks).
func (p *Predictor) BankUse() [NumPredictorBanks]int64 { return p.bankUse }

// Lookup implements predictor.FusedPredictor: the full index set is
// computed once, against the bank sequencer's state at prediction time —
// exactly when the hardware computes it (§6).
func (p *Predictor) Lookup(info *history.Info) predictor.Snapshot {
	return p.core.Lookup(info)
}

// UpdateWith implements predictor.FusedPredictor: training happens on the
// entries the prediction actually read, however long ago that was.
func (p *Predictor) UpdateWith(s predictor.Snapshot, taken bool) {
	p.core.UpdateWith(s, taken)
}

// Predict implements predictor.Predictor. The computed snapshot is also
// remembered (keyed by the information vector) so that a later unfused
// Update trains the entries this prediction read: the EV8 index functions
// depend on the bank sequencer, which keeps advancing between prediction
// and a commit-delayed update, so re-evaluating them at update time would
// train different rows than were predicted from. The hardware carries the
// fetch-time indices with the branch (§6); so does this model.
func (p *Predictor) Predict(info *history.Info) bool {
	s := p.core.Lookup(info)
	p.pending.push(info, s)
	return s.Final
}

// Update implements predictor.Predictor. If the branch's prediction-time
// snapshot is still pending it is consumed; otherwise (update without a
// preceding Predict, or more predictions in flight than the ring holds)
// the index set is re-evaluated at update time, as before.
func (p *Predictor) Update(info *history.Info, taken bool) {
	if s, ok := p.pending.take(info); ok {
		p.core.UpdateWith(s, taken)
		return
	}
	p.core.Update(info, taken)
}

// Components exposes the per-bank predictions (tests, ablations).
func (p *Predictor) Components(info *history.Info) (pbim, p0, p1, pmeta, final bool) {
	return p.core.Components(info)
}

// EnableStats implements stats.Instrumented by delegating to the core
// machine; the EV8 wrapper itself adds no hot-path cost.
func (p *Predictor) EnableStats(on bool) { p.core.EnableStats(on) }

// Stats implements stats.Instrumented: the core 2Bc-gskew attribution
// counters plus the §6 bank-scheduling observations this wrapper already
// collects unconditionally (physical-bank usage, successive-block
// conflicts — which the §6.2 discipline must keep at zero — and the
// two-block fetch-cycle count).
func (p *Predictor) Stats() stats.Counters {
	cs := p.core.Stats()
	if cs == nil {
		return nil
	}
	cs.Add("blocks_observed", p.blocksSeen)
	cs.Add("phys_bank_conflicts", p.bankConflicts)
	for k, n := range p.bankUse {
		cs.Add(fmt.Sprintf("phys_bank_use_%d", k), n)
	}
	cs.Add("fetch_cycles", p.cycles)
	return cs
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// SizeBits implements predictor.Predictor (352 Kbits).
func (p *Predictor) SizeBits() int { return p.core.SizeBits() }

// PredictionBits returns the 208 Kbit prediction-array budget.
func (p *Predictor) PredictionBits() int { return p.core.PredictionBits() }

// HysteresisBits returns the 144 Kbit hysteresis-array budget.
func (p *Predictor) HysteresisBits() int { return p.core.HysteresisBits() }

var _ predictor.Predictor = (*Predictor)(nil)
var _ predictor.FusedPredictor = (*Predictor)(nil)
var _ stats.Instrumented = (*Predictor)(nil)

// snapRingDepth bounds how many prediction-time snapshots can be in
// flight between Predict and its matching unfused Update. 64 comfortably
// covers the commit-delay windows the experiments use (8 and 64 branches);
// overflow degrades gracefully to update-time re-evaluation.
const snapRingDepth = 64

// snapEntry pairs a prediction-time snapshot with the information vector
// it was computed for.
type snapEntry struct {
	info history.Info
	snap predictor.Snapshot
}

// snapRing is a FIFO of in-flight prediction snapshots. Updates arrive in
// prediction order (the simulator's commit-delay queue preserves it), so a
// take scans from the oldest entry; entries older than a match belong to
// predictions that will never be updated and are discarded with it.
type snapRing struct {
	buf  [snapRingDepth]snapEntry
	tail int // oldest entry
	n    int // live entries
}

// push records a prediction-time snapshot, evicting the oldest in-flight
// entry when full.
func (r *snapRing) push(info *history.Info, s predictor.Snapshot) {
	if r.n == snapRingDepth {
		r.tail = (r.tail + 1) % snapRingDepth
		r.n--
	}
	r.buf[(r.tail+r.n)%snapRingDepth] = snapEntry{info: *info, snap: s}
	r.n++
}

// take finds and consumes the oldest pending snapshot for info.
func (r *snapRing) take(info *history.Info) (predictor.Snapshot, bool) {
	for i := 0; i < r.n; i++ {
		e := &r.buf[(r.tail+i)%snapRingDepth]
		if e.info == *info {
			s := e.snap
			r.tail = (r.tail + i + 1) % snapRingDepth
			r.n -= i + 1
			return s, true
		}
	}
	return predictor.Snapshot{}, false
}
