package main

// The decomposition: the traced run drives the simulator's public layer
// functions itself, chunk by chunk — Generator.NextBatch, then
// Tracker.Process with the block stream and StageBank, then each
// predictor's LookupBatch/LookupBankedBatch and UpdateBatch (or, off the
// batch path, Lookup/UpdateWith through a commit-delay ring) — with one
// span around each call. Its Results must equal sim.Run's and
// sim.RunEnsemble's exactly; that equality is what shows the layer times
// belong to the program the untraced run timed.

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/sim"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// Span names of the decomposition. Member spans are "<family>.index" and
// "<family>.resolve" on the batch path, spanFused off it.
const (
	spanGroup = "sim.group"
	spanGen   = "workload.gen"
	spanWalk  = "frontend.walk"
	spanFused = "predictor.fused"
)

// chunk is the records staged per round, the size the simulator's batch
// path uses.
const chunk = 1024

// decomposed is one benchmark's decomposition: the members' Results in
// factory order, and the work counts of the shared front end.
type decomposed struct {
	results  []sim.Result
	records  int64 // trace records the generator produced
	blocks   int64 // fetch blocks the front end completed
	branches int64 // conditional branches of the stream
}

// dmember is one predictor of the decomposition with its own delay ring,
// like a member of sim.RunEnsemble.
type dmember struct {
	p         predictor.FusedPredictor
	bp        predictor.BatchPredictor     // non-nil: batch path
	bbo       predictor.BlockBatchObserver // non-nil: banked index pass
	obs       sim.BlockObserver            // non-nil: sees the block stream
	inst      stats.Instrumented
	index     string // span names of the batch path
	resolve   string
	banks     []uint8
	ring      []pending
	head, n   int
	misp      int64
	snaps     []predictor.Snapshot
	finals    []uint64
	nextBlock int // next buffered block to deliver (scalar observers)
}

type pending struct {
	snap  predictor.Snapshot
	taken bool
}

// family names a predictor's layer for its span names.
func family(p predictor.Predictor) string {
	switch p.(type) {
	case *ev8.Predictor:
		return "ev8"
	case *core.Predictor:
		return "core"
	case *gshare.Gshare:
		return "gshare"
	default:
		return "predictor"
	}
}

// decomposeGroup simulates one benchmark stream for every factory, the
// way sim.RunEnsemble does, with spans in tr (nil: spans off) under one
// root span for op. Only the options the workloads use are supported;
// the others are rejected rather than ignored.
func decomposeGroup(tr *tracer, op int, prof workload.Profile, budget int64, factories []sim.Factory, opts sim.Options) (decomposed, error) {
	var d decomposed
	if opts.Warmup != 0 || opts.LenientFlow {
		return d, errors.New("decomposition supports neither Warmup nor LenientFlow")
	}
	g, err := workload.New(prof, budget)
	if err != nil {
		return d, err
	}
	members := make([]dmember, len(factories))
	var walkObs []sim.BlockObserver // fed during the walk (batch members)
	var staged []int                // members whose banks the walk captures
	buffered := false               // some scalar member observes blocks
	for k, mk := range factories {
		p, err := mk()
		if err != nil {
			return d, fmt.Errorf("building member %d: %w", k, err)
		}
		fp, ok := p.(predictor.FusedPredictor)
		if !ok {
			return d, fmt.Errorf("member %s is not a predictor.FusedPredictor", p.Name())
		}
		m := &members[k]
		m.p = fp
		m.obs, _ = p.(sim.BlockObserver)
		if bp, ok := p.(predictor.BatchPredictor); ok && opts.UpdateDelay == 0 && opts.Batch != sim.BatchOff {
			m.bp = bp
			m.index, m.resolve = family(p)+".index", family(p)+".resolve"
			m.snaps = make([]predictor.Snapshot, chunk)
			m.finals = make([]uint64, predictor.BatchWords(chunk))
			if m.obs != nil {
				bbo, ok := p.(predictor.BlockBatchObserver)
				if !ok {
					return d, fmt.Errorf("member %s observes blocks without predictor.BlockBatchObserver", p.Name())
				}
				m.bbo = bbo
				m.banks = make([]uint8, chunk)
				walkObs = append(walkObs, m.obs)
				staged = append(staged, k)
			}
		} else if m.obs != nil {
			buffered = true
		}
		if opts.UpdateDelay > 0 {
			m.ring = make([]pending, opts.UpdateDelay)
		}
		if opts.Collect {
			if inst, ok := p.(stats.Instrumented); ok {
				m.inst = inst
				inst.EnableStats(true)
			}
		}
	}

	// A scalar block observer must see each block just before the first
	// Lookup that follows it, as in sim's per-branch loop; the walk
	// buffers the blocks with the index of the branch they precede.
	// Without one, the walk wires the block stream as sim does.
	var blocks []frontend.Block
	var blockAt []int
	m := 0 // conditional branches staged in the current chunk
	tk := frontend.NewTracker(opts.Mode)
	switch {
	case buffered:
		tk.OnBlock(func(b frontend.Block) {
			for _, o := range walkObs {
				o.ObserveBlock(b)
			}
			blocks = append(blocks, b)
			blockAt = append(blockAt, m)
		})
	case len(walkObs) == 1:
		tk.OnBlock(walkObs[0].ObserveBlock)
	case len(walkObs) > 1:
		tk.OnBlock(func(b frontend.Block) {
			for _, o := range walkObs {
				o.ObserveBlock(b)
			}
		})
	}

	buf := make([]trace.Branch, chunk)
	infos := make([]history.Info, chunk)
	taken := make([]uint64, predictor.BatchWords(chunk))
	var instructions int64
	root := tr.begin(spanGroup, -1, op)
	for {
		// Under MaxBranches a fill never asks for more records than
		// branches remain, as in sim's batch path, so the stream stops
		// right after the last budgeted branch.
		want := chunk
		if opts.MaxBranches > 0 {
			rem := opts.MaxBranches - d.branches
			if rem <= 0 {
				break
			}
			want = int(min(rem, chunk))
		}
		sp := tr.begin(spanGen, root, op)
		n, ferr := g.NextBatch(buf[:want])
		tr.end(sp)

		sp = tr.begin(spanWalk, root, op)
		m = 0
		blocks, blockAt = blocks[:0], blockAt[:0]
		for bi := 0; bi < n; bi++ {
			b := &buf[bi]
			if b.Thread != 0 {
				tr.end(sp)
				return d, fmt.Errorf("record of thread %d: decomposition drives single-thread streams", b.Thread)
			}
			info, isCond := tk.Process(*b)
			instructions += int64(b.Gap) + 1
			if !isCond {
				continue
			}
			for _, k := range staged {
				members[k].banks[m] = members[k].bbo.StageBank(info.BlockPC)
			}
			if m&63 == 0 {
				taken[m>>6] = 0
			}
			if b.Taken {
				taken[m>>6] |= 1 << (uint(m) & 63)
			}
			infos[m] = info
			m++
		}
		tr.end(sp)
		d.records += int64(n)

		for k := range members {
			mb := &members[k]
			if mb.bp != nil {
				if m == 0 {
					continue
				}
				sp := tr.begin(mb.index, root, op)
				if mb.bbo != nil {
					mb.bbo.LookupBankedBatch(infos[:m], mb.banks[:m], mb.snaps[:m])
				} else {
					mb.bp.LookupBatch(infos[:m], mb.snaps[:m])
				}
				tr.end(sp)
				sp = tr.begin(mb.resolve, root, op)
				mb.bp.UpdateBatch(mb.snaps[:m], taken, mb.finals)
				tr.end(sp)
				mb.misp += countMispredicts(mb.finals, taken, m)
				continue
			}
			sp := tr.begin(spanFused, root, op)
			mb.nextBlock = 0
			for j := 0; j < m; j++ {
				if mb.obs != nil {
					mb.deliver(blocks, blockAt, j)
				}
				tkn := taken[j>>6]>>(uint(j)&63)&1 == 1
				s := mb.p.Lookup(&infos[j])
				if s.Final != tkn {
					mb.misp++
				}
				mb.retire(s, tkn)
			}
			if mb.obs != nil {
				mb.deliver(blocks, blockAt, m)
			}
			tr.end(sp)
		}
		d.branches += int64(m)
		if ferr != nil || n == 0 {
			if ferr != nil && ferr != io.EOF {
				tr.end(root)
				return d, fmt.Errorf("source failed: %w", ferr)
			}
			break
		}
	}
	for k := range members {
		mb := &members[k]
		for ; mb.n > 0; mb.n-- {
			mb.p.UpdateWith(mb.ring[mb.head].snap, mb.ring[mb.head].taken)
			mb.head = (mb.head + 1) % len(mb.ring)
		}
	}
	tr.end(root)
	d.blocks = tk.Blocks()

	d.results = make([]sim.Result, len(members))
	for k := range members {
		mb := &members[k]
		r := sim.Result{Predictor: mb.p.Name(), Workload: prof.Name, Branches: d.branches,
			Mispredicts: mb.misp, Instructions: instructions, SizeBits: mb.p.SizeBits()}
		if mb.inst != nil {
			cs := mb.inst.Stats()
			r.Stats = &cs
		}
		if err := r.Validate(); err != nil {
			return d, err
		}
		d.results[k] = r
	}
	return d, nil
}

// deliver feeds the member every buffered block that precedes branch j.
func (mb *dmember) deliver(blocks []frontend.Block, blockAt []int, j int) {
	for mb.nextBlock < len(blocks) && blockAt[mb.nextBlock] <= j {
		mb.obs.ObserveBlock(blocks[mb.nextBlock])
		mb.nextBlock++
	}
}

// retire trains the member with a looked-up branch: at once at delay 0,
// otherwise through the FIFO ring, whose oldest entry retires when full —
// sim's commit-delay order.
func (mb *dmember) retire(s predictor.Snapshot, taken bool) {
	if len(mb.ring) == 0 {
		mb.p.UpdateWith(s, taken)
		return
	}
	if mb.n == len(mb.ring) {
		old := mb.ring[mb.head]
		mb.p.UpdateWith(old.snap, old.taken)
		mb.ring[mb.head] = pending{s, taken}
		mb.head = (mb.head + 1) % len(mb.ring)
		return
	}
	mb.ring[(mb.head+mb.n)%len(mb.ring)] = pending{s, taken}
	mb.n++
}

// countMispredicts popcounts prediction/outcome disagreements over the
// first m lanes of the packed words.
func countMispredicts(finals, taken []uint64, m int) int64 {
	var misp int64
	for w := 0; w < (m+63)>>6; w++ {
		diff := finals[w] ^ taken[w]
		if hi := (w + 1) << 6; hi > m {
			diff &= ^uint64(0) >> uint(hi-m)
		}
		misp += int64(bits.OnesCount64(diff))
	}
	return misp
}
