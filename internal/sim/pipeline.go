// Two-stage pipeline for the streams the simulator builds itself
// (RunBenchmark, RunEnsembleBenchmark). Workload generation depends on
// nothing downstream of it, so a producer goroutine runs it ahead of the
// simulation on a second CPU: it fills batchChunk-record chunks from the
// cancel-wrapped generator into a small ring of reused buffers, and the
// stream engine consumes them through the trace.BatchSource /
// trace.ErrSource contracts. The per-branch cost drops from
// generate+walk+predict to about the larger of generate and walk+predict.
//
// Records are never reordered and the stream is still consumed serially
// by one goroutine; only generation runs ahead. The pipeline is exact:
//
//   - Under MaxBranches the producer sizes every fill with the same rule
//     as the consumers (fillWant), counting the conditional branches it
//     has handed over, so it never reads past the record that completes
//     the budget: Checkpoint.Records and the generator's final position
//     are those of a direct run.
//   - Cancellation still ends the stream with the cancel wrapper's
//     ErrCanceled error, which the consumer reads as the source's
//     terminal error.
//   - A producer panic is recovered and re-raised in the consumer's
//     goroutine, so the pool's runJob still turns it into an error.
//   - The producer never outlives the call that started it: stop ends it
//     and waits for it to exit.
//
// It engages only where a CPU is spare: GOMAXPROCS > 1 and no pool job
// running in the process (a pool fan-out already fills every CPU with
// cells, and its Workers: 1 debug path stays single-goroutine). Both
// checks were measured against pipelining every stream, with cmd/ev8perf
// (10 s runs, seed 1, alternating, on a shared 2-vCPU Xeon VM; see
// docs/PARALLELISM.md). Inside pool jobs the pipeline gained nothing and
// cost set-up time and memory: sweep_2bcg_history ns_per_branch moved
// +10% and -1.5% in two sets of 10 rounds, but setup_s rose in 15 of 20;
// serve_mixed ns_per_branch moved +0.2%, while setup_s rose 12% (9 of 10)
// and peak_rss_mb 5% (9 of 10). At GOMAXPROCS=1 it was neutral (table1_ev8
// -1.6%, lower in 4 of 10), so the check only keeps single-CPU runs on
// the direct path.
package sim

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"

	"ev8pred/internal/trace"
)

// pipeDepth is the number of chunk buffers in the ring: one being filled,
// one queued and one being drained keep both stages busy; more would only
// add cache footprint.
const pipeDepth = 3

// poolJobs counts the pool jobs (Parallel's runJob) running in this
// process; while any runs, streams are not pipelined. It is process-wide
// rather than a parameter because the experiment generators reach
// RunBenchmark from inside Parallel jobs through the public API. A
// one-job fan-out and the last job of a fan-out therefore stay inline
// too, although a CPU may be idle then.
var poolJobs atomic.Int64

// pipelining reports whether a stream started now should run its
// generator on a second CPU.
func pipelining() bool {
	return runtime.GOMAXPROCS(0) > 1 && poolJobs.Load() == 0
}

// stream returns the source a simulator-built stream is consumed through:
// src behind the cancel wrapper and, when pipelined, behind a producer
// goroutine bounded by maxBranches. The caller must call stop before it
// returns (a deferred call also covers panics); stop ends the producer
// and waits for it to exit.
func stream(ctx context.Context, src trace.Source, maxBranches int64, pipelined bool) (s trace.Source, stop func()) {
	src = sourceWithCancel(ctx, src)
	if !pipelined {
		return src, func() {}
	}
	// Both channels hold every buffer of the ring, so neither side ever
	// blocks on a send.
	p := &pipeSource{
		full: make(chan pipeChunk, pipeDepth),
		free: make(chan []trace.Branch, pipeDepth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range pipeDepth {
		p.free <- make([]trace.Branch, batchChunk)
	}
	go p.produce(src, maxBranches)
	return p, p.stop
}

// pipeChunk is one hand-off from producer to consumer: buf[:n] are
// records; err is nil mid-stream, or the terminal io.EOF or failure that
// follows them; panicked carries a recovered producer panic.
type pipeChunk struct {
	buf      []trace.Branch
	n        int
	err      error
	panicked any
}

// pipeSource is the consumer's view of the pipeline. Everything but the
// channels belongs to the consuming goroutine.
type pipeSource struct {
	full chan pipeChunk      // filled chunks, in stream order
	free chan []trace.Branch // drained buffers, back to the producer
	quit chan struct{}       // closed by stop
	done chan struct{}       // closed when the producer exits
	cur  pipeChunk           // the chunk being drained
	off  int                 // records of cur already delivered
}

// produce is the producer goroutine: it fills free buffers from src until
// the stream ends, the branch budget is spent, or stop is called.
func (p *pipeSource) produce(src trace.Source, maxBranches int64) {
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			select {
			case p.full <- pipeChunk{panicked: r}:
			case <-p.quit:
			}
		}
	}()
	var branches int64
	for {
		var buf []trace.Branch
		select {
		case buf = <-p.free:
		case <-p.quit:
			return
		}
		n, err := trace.ReadBatch(src, buf[:fillWant(maxBranches, branches)])
		if maxBranches > 0 {
			for i := range n {
				if buf[i].Kind == trace.Cond {
					branches++
				}
			}
			if err == nil && fillWant(maxBranches, branches) == 0 {
				// The consumers stop here without asking again.
				err = io.EOF
			}
		}
		if n == 0 && err == nil {
			// A source that makes no progress would spin both stages; the
			// engine's walk ends on it too.
			err = io.EOF
		}
		p.full <- pipeChunk{buf: buf, n: n, err: err}
		if err != nil {
			return
		}
	}
}

// stop ends the producer and waits until it has exited.
func (p *pipeSource) stop() {
	close(p.quit)
	<-p.done
}

// advance makes cur a chunk with records left to deliver, handing the
// drained buffer back to the producer; false means the stream has ended
// (cur.err says how). A producer panic is re-raised here.
func (p *pipeSource) advance() bool {
	for p.off == p.cur.n {
		if p.cur.err != nil {
			return false
		}
		if p.cur.buf != nil {
			p.free <- p.cur.buf // never blocks: the ring holds every buffer
		}
		p.cur, p.off = <-p.full, 0
		if p.cur.panicked != nil {
			v := p.cur.panicked
			p.cur = pipeChunk{err: io.ErrClosedPipe}
			panic(v)
		}
	}
	return true
}

// Next implements trace.Source.
func (p *pipeSource) Next() (trace.Branch, bool) {
	if !p.advance() {
		return trace.Branch{}, false
	}
	b := p.cur.buf[p.off]
	p.off++
	return b, true
}

// NextBatch implements trace.BatchSource, delivering at most the rest of
// the current chunk; the terminal error comes with the chunk's last
// records, as from the underlying source.
func (p *pipeSource) NextBatch(dst []trace.Branch) (int, error) {
	if !p.advance() {
		return 0, p.cur.err
	}
	n := copy(dst, p.cur.buf[p.off:p.cur.n])
	p.off += n
	if p.off == p.cur.n {
		return n, p.cur.err
	}
	return n, nil
}

// Err implements trace.ErrSource: the producer's terminal failure (for
// example the cancel wrapper's ErrCanceled), once the consumer reached it.
func (p *pipeSource) Err() error {
	if p.cur.err == io.EOF {
		return nil
	}
	return p.cur.err
}
