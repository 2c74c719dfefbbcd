// Command ev8serve is the prediction-as-a-service daemon: it serves the
// simulation engine over HTTP, so a team can share one long-running
// process (and one warm result cache) instead of each re-running the
// CLIs (docs/SERVING.md).
//
// Usage:
//
//	ev8serve [-addr localhost:8311] [-j workers] [-cache DIR]
//	         [-max-jobs N] [-queue N] [-tenant-quota N] [-max-cells N]
//	         [-drain-timeout 1m] [-v]
//
// Tenants submit experiment specs as JSON (POST /v1/jobs) and read back
// an NDJSON stream: admission, per-cell progress in input order, and the
// final result records — byte-identical to what ev8sweep -json emits for
// the same spec, including the -stats attribution counters. Specs are
// resolved through the same predictor roster, mode table and ensemble
// scheduler as the CLIs, and cells are answered from / stored into the
// shared content-addressed cache (-cache), so the daemon and the CLIs
// interoperate on one store.
//
// Concurrent tenants multiplex through a bounded scheduler: at most
// -max-jobs jobs simulate at once, -queue more wait, and submissions
// beyond that are refused with 429 and a Retry-After header
// (backpressure). One tenant can hold at most -tenant-quota admitted
// jobs, so no tenant can starve the rest. GET /v1/jobs, /v1/jobs/{id}
// and /healthz report status; /debug/vars adds the scheduler totals and
// the running jobs' progress to the expvar page, under "ev8serve".
//
// On SIGTERM/SIGINT the daemon drains gracefully: new submissions are
// refused, queued jobs are rejected with a typed stream error, running
// jobs — and their cache writes — complete, then the process exits. A
// second signal, or -drain-timeout expiring, aborts the wait.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ev8pred/internal/cache"
	"ev8pred/internal/cliflag"
	"ev8pred/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ev8serve:", err)
		os.Exit(1)
	}
}

// run executes the daemon until a fatal error or a drain signal. sig
// delivers shutdown signals (tests inject their own channel); ready, if
// non-nil, receives the bound address once the listener is up (tests use
// it to dial "-addr 127.0.0.1:0" without parsing output).
func run(args []string, out, errw io.Writer, sig <-chan os.Signal, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("ev8serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is one error line, not the whole usage
	var (
		addr         = fs.String("addr", "localhost:8311", "HTTP listen address")
		workers      = fs.Int("j", 0, "parallel simulation cells per job (0 = one per CPU, 1 = serial)")
		cacheDir     = fs.String("cache", "", "content-addressed result cache directory shared with the CLIs (e.g. "+cache.DefaultDir+"; empty = no caching)")
		maxJobs      = fs.Int("max-jobs", 2, "jobs simulating concurrently")
		queueDepth   = fs.Int("queue", 8, "admitted jobs waiting beyond -max-jobs before submissions get 429")
		tenantQuota  = fs.Int("tenant-quota", 4, "admitted jobs one tenant may hold")
		maxCells     = fs.Int("max-cells", 4096, "largest cell fan-out one spec may request")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long a drain waits for in-flight jobs before giving up")
		verbose      = fs.Bool("v", false, "print harness diagnostics to stderr")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		fs.SetOutput(out)
		fs.Usage()
		return nil
	} else if err != nil {
		return fmt.Errorf("%v (run with -h for usage)", err)
	}
	if err := cliflag.HostPort("addr", *addr); err != nil {
		return err
	}
	if err := cliflag.Workers("j", *workers); err != nil {
		return err
	}
	for _, lim := range []struct {
		flag string
		v    int
	}{{"max-jobs", *maxJobs}, {"queue", *queueDepth}, {"tenant-quota", *tenantQuota}, {"max-cells", *maxCells}} {
		if err := cliflag.Positive(lim.flag, int64(lim.v)); err != nil {
			return err
		}
	}

	cfg := serve.Config{
		Workers:     *workers,
		MaxJobs:     *maxJobs,
		QueueDepth:  *queueDepth,
		TenantQuota: *tenantQuota,
		MaxCells:    *maxCells,
	}
	if *verbose {
		cfg.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(errw, "ev8serve: "+format+"\n", args...)
		}
	}
	if *cacheDir != "" {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = store
		defer func() {
			if *verbose {
				hits, misses, readErrs, puts := store.Counts()
				fmt.Fprintf(errw, "ev8serve: cache: %d hits, %d misses, %d read errors, %d stored (%s)\n",
					hits, misses, readErrs, puts, store.Dir())
			}
		}()
	}

	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(out, "ev8serve: serving on http://%s (jobs: %d running / %d queued; workers/job: %d)\n",
		ln.Addr(), *maxJobs, *queueDepth, *workers)
	if ready != nil {
		ready(ln.Addr())
	}

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(errw, "ev8serve: %v: draining (running jobs finish, new submissions refused)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			// A second signal aborts the drain wait.
			select {
			case s := <-sig:
				fmt.Fprintf(errw, "ev8serve: %v: aborting drain\n", s)
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := srv.Drain(ctx); err != nil {
			hs.Close()
			return err
		}
		// Jobs have settled; now close out the HTTP side (streams are
		// already finished, so this is quick).
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(errw, "ev8serve: drained cleanly")
		return nil
	}
}
