// Package cliflag validates serving-adjacent command-line flag values —
// worker counts, positive limits, listen addresses — with one typed
// error, so every CLI rejects a malformed value with a clear message
// instead of panicking or silently substituting a default. (The -shard
// spec has its own typed validation in internal/shard.ParseSpec; -mode
// goes through frontend.ModeByName. This package covers the knobs that
// package flag itself cannot range-check. No CLI takes a schedule flag:
// the pool and the engine choose the schedule, which changes no result.)
package cliflag

import (
	"fmt"
	"net"
	"strconv"
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

// Positive validates a flag that must be strictly positive (queue
// depths, quotas, instruction budgets).
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
