// Package cliflag is the one command-line front door of the ev8pred
// tools. A Command wraps a tool's flag set and does, in one place, each
// input decision the tools share: it parses the arguments (a bad flag
// is one error line, -h prints the usage), rejects worker counts,
// budgets and limits out of range with one typed *Error instead of
// silently substituting a default, starts the -cpuprofile/-memprofile
// profiles, opens the -cache store with its -v log hook and end-of-run
// summary, and writes the -json output. Benchmarks resolves a
// -benchmarks list through the same resolver as a served spec. (The
// -shard spec has its own typed validation in internal/shard.ParseSpec;
// -mode goes through frontend.ModeByName. No tool takes a schedule
// flag: the pool and the engine choose the schedule, which changes no
// result.)
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ev8pred/internal/cache"
	"ev8pred/internal/report"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// Error describes one rejected flag value: which flag, what value, why.
// CLIs return it unwrapped so the message reaches the user verbatim;
// tests assert on it with errors.As.
type Error struct {
	Flag   string // flag name, without the leading dash
	Value  string // the rejected value as given
	Reason string // why it was rejected, including the accepted forms
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("flag -%s: invalid value %q: %s", e.Flag, e.Value, e.Reason)
}

// Workers validates a -j style worker count: 0 means "one per CPU" and
// positive values bound the fan-out, but a negative count is always a
// mistake — before this check it silently behaved like 0, hiding typos
// such as "-j -8" for "-j 8".
func Workers(flag string, j int) error {
	if j < 0 {
		return &Error{Flag: flag, Value: strconv.Itoa(j),
			Reason: "worker count cannot be negative (0 = one per CPU, 1 = serial, N = at most N in flight)"}
	}
	return nil
}

// Positive validates a flag that must be strictly positive (instruction
// budgets, thread counts, queue depths, quotas).
func Positive(flag string, v int64) error {
	if v <= 0 {
		return &Error{Flag: flag, Value: strconv.FormatInt(v, 10),
			Reason: "value must be positive"}
	}
	return nil
}

// HostPort validates a listen address of the form "host:port" (host may
// be empty, as in ":8080"). It rejects, with a typed error, the values
// net.Listen would otherwise turn into confusing runtime failures —
// missing port, non-numeric port, port out of range.
func HostPort(flag, addr string) error {
	if addr == "" {
		return &Error{Flag: flag, Value: addr,
			Reason: "empty address (want host:port, e.g. localhost:8080 or :8080)"}
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return &Error{Flag: flag, Value: addr,
			Reason: "want host:port, e.g. localhost:8080 or :8080"}
	}
	if port == "" {
		return &Error{Flag: flag, Value: addr,
			Reason: "missing port (use :0 for an ephemeral port)"}
	}
	if n, err := strconv.Atoi(port); err != nil || n < 0 || n > 65535 {
		// Named services ("http") resolve through /etc/services.
		if _, lerr := net.LookupPort("tcp", port); lerr != nil {
			return &Error{Flag: flag, Value: addr,
				Reason: fmt.Sprintf("port %q is not a number in [0, 65535] or a known service name", port)}
		}
	}
	return nil
}

// Benchmarks resolves a comma-separated -benchmarks value: "all" is the
// full suite, anything else a list of benchmark names. It is
// sweep.Benchmarks, the resolver a served spec's benchmarks go through.
func Benchmarks(list string) ([]workload.Profile, error) {
	return sweep.Benchmarks(strings.Split(list, ","))
}

// Command is one tool's command line: its flag set, the checks Parse
// runs on the parsed values, and the shared flags the tool asked for.
type Command struct {
	*flag.FlagSet
	name      string
	out, errw io.Writer
	checks    []func() error

	cpuprofile, memprofile *string // set by Profiles
	cacheDir               *string // set by Cache
	verbose                *bool   // set by Cache
	jsonPath               *string // set by JSON

	store *cache.Store
	stops []func() // run by Close, last first
}

// New starts the command line of the named tool. out receives -h's
// usage and the tool's output (Emit); errw receives diagnostics.
func New(name string, out, errw io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is one error line, not the whole usage
	return &Command{FlagSet: fs, name: name, out: out, errw: errw}
}

// PositiveInt64 defines an int64 flag that Parse rejects unless it is
// positive.
func (c *Command) PositiveInt64(name string, value int64, usage string) *int64 {
	p := c.Int64(name, value, usage)
	c.checks = append(c.checks, func() error { return Positive(name, *p) })
	return p
}

// PositiveInt defines an int flag that Parse rejects unless it is
// positive.
func (c *Command) PositiveInt(name string, value int, usage string) *int {
	p := c.Int(name, value, usage)
	c.checks = append(c.checks, func() error { return Positive(name, int64(*p)) })
	return p
}

// Workers defines the -j worker count, default 0 (one per CPU), which
// Parse rejects when negative.
func (c *Command) Workers(usage string) *int {
	p := c.Int("j", 0, usage)
	c.checks = append(c.checks, func() error { return Workers("j", *p) })
	return p
}

// Profiles defines -cpuprofile and -memprofile. Parse creates the
// requested files, so an unwritable path fails before any work, and
// starts the CPU profile; Close ends it and writes the allocation
// profile.
func (c *Command) Profiles() {
	c.cpuprofile = c.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	c.memprofile = c.String("memprofile", "", "write an allocation profile to this file at exit")
}

// Cache defines -cache and -v (verbose is -v's usage) and returns -v.
// Parse opens the store; Store and Log hand it and the -v log hook to
// the run, and Close prints the store's summary under -v.
func (c *Command) Cache(verbose string) *bool {
	c.cacheDir = c.String("cache", "", "content-addressed result cache directory (e.g. "+cache.DefaultDir+"; empty = no caching)")
	c.verbose = c.Bool("v", false, verbose)
	return c.verbose
}

// JSON defines -json for Emit.
func (c *Command) JSON() {
	c.jsonPath = c.String("json", "", "emit the results as JSON to this file ('-' = stdout, replacing the table)")
}

// Parse parses args and sets up what the shared flags ask for. It
// returns ok == false when the tool must not run: with a nil error
// after -h, which prints the usage to out; otherwise with the one-line
// error of a bad flag, the *Error of a value out of range, or the
// failure to create a profile or open the store. After ok, the caller
// defers Close.
func (c *Command) Parse(args []string) (ok bool, err error) {
	if err := c.FlagSet.Parse(args); err == flag.ErrHelp {
		c.SetOutput(c.out)
		c.Usage()
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("%v (run with -h for usage)", err)
	}
	for _, check := range c.checks {
		if err := check(); err != nil {
			return false, err
		}
	}
	if err := c.setUp(); err != nil {
		c.Close()
		return false, err
	}
	return true, nil
}

// setUp starts the requested profiles and opens the store, registering
// what Close must undo, in the reverse order: the cache summary, the CPU
// profile, the allocation profile.
func (c *Command) setUp() error {
	report := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(c.errw, "%s: %s: %v\n", c.name, what, err)
		}
	}
	if c.memprofile != nil && *c.memprofile != "" {
		f, err := os.Create(*c.memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		c.stops = append(c.stops, func() {
			runtime.GC() // flush the final allocation statistics
			report("memprofile", pprof.Lookup("allocs").WriteTo(f, 0))
			report("closing memprofile", f.Close())
		})
	}
	if c.cpuprofile != nil && *c.cpuprofile != "" {
		f, err := os.Create(*c.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		c.stops = append(c.stops, func() {
			pprof.StopCPUProfile()
			report("closing cpu profile", f.Close())
		})
	}
	if c.cacheDir != nil && *c.cacheDir != "" {
		store, err := cache.Open(*c.cacheDir)
		if err != nil {
			return err
		}
		c.store = store
		c.stops = append(c.stops, func() {
			if *c.verbose {
				hits, misses, readErrs, puts := store.Counts()
				fmt.Fprintf(c.errw, "%s: cache: %d hits, %d misses, %d read errors, %d stored (%s)\n",
					c.name, hits, misses, readErrs, puts, store.Dir())
			}
		})
	}
	return nil
}

// Close ends what Parse set up: it prints the -v cache summary and
// stops the profiles.
func (c *Command) Close() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
}

// Store is the -cache store, nil without -cache.
func (c *Command) Store() *cache.Store { return c.store }

// Log is the -v log hook, writing each line to errw under the tool's
// name; nil without -v.
func (c *Command) Log() func(format string, args ...interface{}) {
	if c.verbose == nil || !*c.verbose {
		return nil
	}
	return func(format string, args ...interface{}) {
		fmt.Fprintf(c.errw, c.name+": "+format+"\n", args...)
	}
}

// Emit writes the tool's output: the table to out, unless -json is
// "-", which writes the runs as JSON to out in its place; any other
// -json path gets the JSON alongside the printed table.
func (c *Command) Emit(tbl *report.Table, runs []report.Run) error {
	if *c.jsonPath == "-" {
		return report.WriteJSON(c.out, runs)
	}
	if err := tbl.Fprint(c.out); err != nil {
		return err
	}
	if *c.jsonPath == "" {
		return nil
	}
	return WriteFile(*c.jsonPath, func(f io.Writer) error { return report.WriteJSON(f, runs) })
}

// WriteFile creates the file at path and fills it with write; failing to
// write or to close the file is the error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("closing %s: %w", path, cerr)
	}
	return werr
}
