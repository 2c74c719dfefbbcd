// Context cancellation for in-flight simulation cells. The pool has
// always canceled BETWEEN cells (Parallel checks its context before
// starting each job); this file lets a caller interrupt a cell
// MID-STREAM — the serving layer (internal/serve) needs that so a
// disconnected tenant or a draining daemon stops paying for a
// half-finished multi-million-branch run.
//
// The mechanism deliberately reuses the trace.Source error contract
// instead of touching the per-branch hot loop: the workload source is
// wrapped in a view whose NextBatch polls the context once per call and,
// once it is done, fails the stream with a sticky terminal error, which
// sim.Run already propagates ("a short stream must never masquerade as a
// valid run" — the same plumbing corruption detection uses). The wrapper
// is skipped entirely for non-cancelable contexts (context.Background has
// a nil Done channel), so existing callers pay nothing.
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

// cancelSource is the cancelable view of a stream.
type cancelSource struct {
	src  trace.Source
	done <-chan struct{}
	err  error
}

// sourceWithCancel wraps src so the stream fails, with a typed terminal
// error, once ctx is done. Contexts that can never be canceled return src
// unchanged.
func sourceWithCancel(ctx context.Context, src trace.Source) trace.Source {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	return &cancelSource{src: src, done: ctx.Done()}
}

// NextBatch implements trace.Source: one context poll per call (a chunk
// of up to 1024 records downstream).
func (c *cancelSource) NextBatch(dst []trace.Branch) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	select {
	case <-c.done:
		c.err = fmt.Errorf("%w: context done", ErrCanceled)
		return 0, c.err
	default:
	}
	return c.src.NextBatch(dst)
}

// runEnsembleBenchmarkCtx is RunEnsembleBenchmark with mid-stream
// cancellation: the workload source is wrapped so ctx ending terminates
// the run with an error wrapping ErrCanceled. The pool runs every job
// here, which is also what makes the pool's own first-error cancellation
// take effect mid-job instead of only between jobs. Outside pool jobs the
// generator and the front-end walk run ahead on a second CPU (see
// pipeline.go).
func runEnsembleBenchmarkCtx(ctx context.Context, factories []Factory, prof workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return nil, err
	}
	rs, err := runEnsemble(factories, sourceWithCancel(ctx, g), opts, pipelining())
	for i := range rs {
		rs[i].Workload = prof.Name
	}
	return rs, err
}
