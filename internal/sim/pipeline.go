// The front-end stage of the stream engine (ensemble.go) and the pipeline
// that runs it ahead of the predictors.
//
// The front end — fetch-block formation and the three-blocks-old
// lghist/path state (§2, §5 of the paper) — reads only the architectural
// stream and never a prediction, so it can run ahead of the predictors
// exactly, as the EV8's own front end does. One function fills a walked
// chunk (walker.fill): one NextBatch call sized by fillWant, then one
// frontend.Threads.Walk over the chunk, which walks each thread's records
// on that thread's tracker, writes the chunk's information vectors and
// logs its fetch blocks (frontend.BlockLog).
// Everything that belongs to a predictor stays with the engine's members:
// the §6.2 bank sequencer's ObserveBlockLog, the index and resolve passes,
// the outcome staging against the commit-delay ring and the mispredict
// count.
//
// On the direct path the engine calls fill inline on its one chunk. For
// the streams the simulator builds itself (RunBenchmark,
// RunEnsembleBenchmark) a producer goroutine runs generator and walk on a
// second CPU instead, filling a ring of pipeDepth chunks that the engine
// reads in place and hands back. The chunks of the ring are the engine's
// only chunk storage, so nothing is copied between the stages. The
// per-branch cost drops from generate+walk+predict to about the larger of
// generate+walk and predict.
//
// Records are never reordered and each stage runs serially in its own
// goroutine. The pipeline is exact:
//
//   - fill is the same function on both paths: under MaxBranches it sizes
//     every fill with fillWant from the conditional branches it has
//     walked, so it never reads past the record that completes the
//     budget, and Checkpoint.Records and the generator's final position
//     are those of a direct run.
//   - Cancellation still ends the stream with the cancel wrapper's
//     ErrCanceled error, the terminal error of the chunk it ends.
//   - A flow break or a negative thread id travels with its chunk, after
//     every chunk before it, with the same text and stream-record index.
//   - A producer panic is recovered and re-raised in the consumer's
//     goroutine, so the pool's runJob still turns it into an error.
//   - The producer owns the trackers for the whole run. The engine joins
//     it before anything else reads them (a checkpoint capture,
//     RunFrontEnd's block count), and it never outlives the call that
//     started it.
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
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/trace"
)

// pipeDepth is the number of chunks in the ring: one being filled, one
// queued and one being drained keep both stages busy; more would only
// add cache footprint.
const pipeDepth = 3

// poolJobs counts the pool jobs (Parallel's runJob) running in this
// process; while any runs, streams are not pipelined. It is process-wide
// rather than a parameter because the experiment generators reach
// RunBenchmark from inside Parallel jobs through the public API. A
// one-job fan-out and the last job of a fan-out therefore stay inline
// too, although a CPU may be idle then.
var poolJobs atomic.Int64

// pipelining reports whether a stream started now should run its front
// end on a second CPU.
func pipelining() bool {
	return runtime.GOMAXPROCS(0) > 1 && poolJobs.Load() == 0
}

// chunk is one walked chunk: the records of one fill, the information
// vector of each conditional branch among them (infos[j] for the j-th)
// and the log of the fetch blocks they completed, with one mark per
// branch.
type chunk struct {
	buf   []trace.Branch
	infos []history.Info
	log   frontend.BlockLog
	// want is the fill's size, n the records it delivered.
	want, n int
	// err is nil mid-stream, or the terminal io.EOF or source failure
	// that follows the chunk's records. abort is an immediate error (a
	// flow break, a negative thread id) that ends the run unfilled.
	err, abort error
}

// spare keeps the chunks of finished runs, at most one ring's worth, for
// the next run to reuse: back-to-back runs share one ring instead of each
// leaving ~0.7 MB to the collector. Unlike a sync.Pool it is not emptied
// by a collection, so a run's allocations do not depend on GC timing.
var spare = make(chan *chunk, pipeDepth)

// getChunk returns a spare chunk, or a new one.
func getChunk() *chunk {
	select {
	case c := <-spare:
		return c
	default:
		return newChunk()
	}
}

// putChunk keeps c for a later run if there is room.
func putChunk(c *chunk) {
	select {
	case spare <- c:
	default:
	}
}

func newChunk() *chunk {
	return &chunk{
		buf:   make([]trace.Branch, batchChunk),
		infos: make([]history.Info, batchChunk),
		log:   frontend.NewBlockLog(batchChunk),
	}
}

// walker is the front end of one traversal: the source, the per-thread
// trackers and how far they have walked. On the pipelined path it
// belongs to the producer goroutine until the engine joins it.
type walker struct {
	src     trace.Source
	opts    *Options
	threads frontend.Threads
	// records and branches count the records and the conditional
	// branches walked so far.
	records, branches int64
}

// fill reads the next fillWant records into c and walks them. Once the
// branch budget is spent the chunk ends the stream with io.EOF, without
// asking the source again.
func (w *walker) fill(c *chunk) {
	c.log.Reset()
	c.n, c.err, c.abort = 0, nil, nil
	if c.want = fillWant(w.opts.MaxBranches, w.branches); c.want == 0 {
		c.err = io.EOF
		return
	}
	c.n, c.err = w.src.NextBatch(c.buf[:c.want])
	if c.n == 0 && c.err == nil {
		// A source breaking the contract would spin both stages.
		c.err = io.ErrNoProgress
	}
	if k, err := w.threads.Walk(c.buf[:c.n], c.infos, &c.log); err != nil {
		c.abort = fmt.Errorf("sim: stream record %d: %w", w.records+int64(k), err)
		return
	}
	w.records += int64(c.n)
	w.branches += int64(len(c.log.Marks))
	if c.err == nil && fillWant(w.opts.MaxBranches, w.branches) == 0 {
		c.err = io.EOF
	}
}

// feed hands the engine its walked chunks in stream order: filled inline
// on the direct path, or taken from the producer's ring when pipelined.
type feed struct {
	w   *walker
	cur *chunk
	// The ring; nil on the direct path. Both channels hold every chunk,
	// so neither side ever blocks on a send.
	full, free chan *chunk
	quit       chan struct{} // closed by stop
	// panicked is a recovered producer panic, published by closing full.
	panicked any
}

// start returns the feed of a traversal of src. The caller must call
// stop before it reads the trackers or returns (a deferred call also
// covers panics), and must not touch a chunk after it.
func (w *walker) start(src trace.Source, pipelined bool) *feed {
	w.src = src
	f := &feed{w: w}
	if !pipelined {
		f.cur = getChunk()
		return f
	}
	f.full = make(chan *chunk, pipeDepth)
	f.free = make(chan *chunk, pipeDepth)
	f.quit = make(chan struct{})
	for range pipeDepth {
		f.free <- getChunk()
	}
	go f.produce()
	return f
}

// produce is the producer goroutine: it fills free chunks until the
// stream ends, the run aborts, or stop is called. Closing full on exit is
// its join.
func (f *feed) produce() {
	defer func() {
		f.panicked = recover()
		close(f.full)
	}()
	for {
		var c *chunk
		select {
		case c = <-f.free:
		case <-f.quit:
			return
		}
		f.w.fill(c)
		f.full <- c
		if c.err != nil || c.abort != nil {
			return
		}
	}
}

// next returns the next walked chunk, handing the previous one back to
// the producer. A producer panic is re-raised here.
func (f *feed) next() *chunk {
	if f.full == nil {
		f.w.fill(f.cur)
		return f.cur
	}
	if f.cur != nil {
		f.free <- f.cur
	}
	var ok bool
	if f.cur, ok = <-f.full; !ok {
		panic(f.panicked)
	}
	return f.cur
}

// stop ends the producer, waits until it has exited, and recycles the
// chunks (but not one a panicking producer held).
func (f *feed) stop() {
	if f.full != nil {
		close(f.quit)
		for c := range f.full {
			putChunk(c)
		}
		for len(f.free) > 0 {
			putChunk(<-f.free)
		}
	}
	if f.cur != nil {
		putChunk(f.cur)
	}
}
