// Context cancellation for in-flight simulation cells. The pool has
// always canceled BETWEEN cells (Parallel checks its context before
// starting each job); this file lets a caller interrupt a cell
// MID-STREAM — the serving layer (internal/serve) needs that so a
// disconnected tenant or a draining daemon stops paying for a
// half-finished multi-million-branch run.
//
// The mechanism deliberately reuses the trace.ErrSource error contract
// instead of touching the per-branch hot loop: the workload source is
// wrapped in a view that reports end-of-stream once the context is done
// and surfaces the cancellation as the source's terminal error, which
// sim.Run already propagates ("a short stream must never masquerade as a
// valid run" — the same plumbing corruption detection uses). The wrapper
// passes NextBatch through, so batch-kernel eligibility is unchanged, and
// it is skipped entirely for non-cancelable contexts (context.Background
// has a nil Done channel), so existing callers pay nothing.
package sim

import (
	"context"
	"errors"
	"fmt"

	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// ErrCanceled is wrapped by the error a canceled run returns; callers
// distinguish "the caller gave up" from a real simulation failure with
// errors.Is(err, sim.ErrCanceled).
var ErrCanceled = errors.New("sim: run canceled")

// cancelStride is how many records a per-record reader advances between
// context polls. A poll is one channel select; at 4096 records the
// amortized cost is unmeasurable, and a cancel lands within ~4096
// branches — microseconds of extra work.
const cancelStride = 4096

// cancelSource is the plain trace.Source view of a cancelable stream.
type cancelSource struct {
	src  trace.Source
	done <-chan struct{}
	n    int
	err  error
}

// cancelBatchSource adds the trace.BatchSource pass-through; it is built
// only when the wrapped source itself batches, so wrapping never
// advertises a capability the source lacks.
type cancelBatchSource struct {
	cancelSource
	batch trace.BatchSource
}

// sourceWithCancel wraps src so the stream ends, with a typed terminal
// error, once ctx is done. Contexts that can never be canceled return src
// unchanged.
func sourceWithCancel(ctx context.Context, src trace.Source) trace.Source {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	cs := cancelSource{src: src, done: ctx.Done(), n: cancelStride}
	if bs, ok := src.(trace.BatchSource); ok {
		return &cancelBatchSource{cancelSource: cs, batch: bs}
	}
	return &cs
}

// canceled records and returns the terminal cancellation error.
func (c *cancelSource) canceled() error {
	if c.err == nil {
		c.err = fmt.Errorf("%w: context done", ErrCanceled)
	}
	return c.err
}

// Next implements trace.Source: every cancelStride records it polls the
// context and, once done, ends the stream.
func (c *cancelSource) Next() (trace.Branch, bool) {
	if c.err != nil {
		return trace.Branch{}, false
	}
	if c.n--; c.n <= 0 {
		c.n = cancelStride
		select {
		case <-c.done:
			c.canceled()
			return trace.Branch{}, false
		default:
		}
	}
	return c.src.Next()
}

// Err implements trace.ErrSource: a cancellation outranks the inner
// source's state (the inner stream was abandoned, not drained).
func (c *cancelSource) Err() error {
	if c.err != nil {
		return c.err
	}
	return trace.SourceErr(c.src)
}

// NextBatch implements trace.BatchSource: one context poll per chunk
// (1024 records downstream), surfacing cancellation as the sticky
// terminal error the batch contract requires.
func (c *cancelBatchSource) NextBatch(dst []trace.Branch) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	select {
	case <-c.done:
		return 0, c.canceled()
	default:
	}
	return c.batch.NextBatch(dst)
}

// runEnsembleBenchmarkCtx is RunEnsembleBenchmark with mid-stream
// cancellation: the workload source is wrapped so ctx ending terminates
// the run with an error wrapping ErrCanceled. The pool runs every job
// here, which is also what makes the pool's own first-error cancellation
// take effect mid-job instead of only between jobs. Outside pool jobs the
// generator runs ahead on a second CPU (see pipeline.go).
func runEnsembleBenchmarkCtx(ctx context.Context, factories []Factory, prof workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return nil, err
	}
	src, stop := stream(ctx, g, opts.MaxBranches, pipelining())
	defer stop()
	rs, err := RunEnsemble(factories, src, opts)
	for i := range rs {
		rs[i].Workload = prof.Name
	}
	return rs, err
}
