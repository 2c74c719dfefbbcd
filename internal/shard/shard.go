// Package shard partitions one parameter sweep across any number of
// processes or machines and merges their results deterministically — the
// distribution layer over the content-addressed result cache
// (internal/cache, docs/CACHING.md) that turns a million-cell design-space
// sweep from one long job into N resumable ones (docs/SHARDING.md).
//
// The contract has three parts:
//
//   - A Plan enumerates a sweep's cell space — the same (factory, values,
//     profiles, budget, options) inputs sweep.RunPool takes — without
//     simulating anything, and derives every cell's cache key. The plan is
//     a pure function of the sweep definition, so every participant
//     (worker or coordinator) computes the identical plan independently.
//   - Assign maps a cell to its owning shard by rendezvous hashing of the
//     cell's content hash: any shard count yields the same total cell set,
//     and reshaping N→N+1 moves only the cells the new shard wins —
//     nothing shuffles between surviving shards.
//   - RunShard simulates one shard's cells through the shared store and
//     records a completion manifest; Merge verifies, from the manifests
//     plus the store, that every cell of every shard completed — failing
//     loudly with a typed *MissingError naming the absent cells otherwise
//     — and reassembles the full result set byte-identically to a
//     single-process run.
//
// Crash recovery costs nothing extra: a killed shard re-run re-derives its
// plan and re-enumerates its cells, and every cell it had already
// completed is answered from the shared store (cache.Store hits), so
// restarting pays only for the unfinished remainder.
package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ev8pred/internal/cache"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// Spec names one shard of a partitioned sweep: Index k of Count N, spelled
// "k/N" on the command line.
type Spec struct {
	Index int
	Count int
}

// SpecError is the typed rejection of a malformed -shard value: which
// spec was given and why it is unusable. Every ParseSpec failure is one
// of these, so CLIs exit with a clear message and tests can assert the
// rejection with errors.As instead of string-matching.
type SpecError struct {
	Spec   string // the rejected value as given
	Reason string // why it was rejected
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("shard: bad spec %q: %s (want k/N with 0 <= k < N, e.g. 0/3)", e.Spec, e.Reason)
}

// ParseSpec parses the CLI spelling "k/N" with 0 <= k < N. Parsing is
// strict — the old fmt.Sscanf version silently accepted trailing garbage
// ("0/3x" parsed as 0/3) and leading whitespace; strconv rejects both,
// so a mangled worker invocation fails loudly instead of quietly
// simulating the wrong shard.
func ParseSpec(s string) (Spec, error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, &SpecError{Spec: s, Reason: "missing '/'"}
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("shard index %q is not a number", ks)}
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("shard count %q is not a number", ns)}
	}
	spec := Spec{Index: k, Count: n}
	if reason := spec.invalid(); reason != "" {
		return Spec{}, &SpecError{Spec: s, Reason: reason}
	}
	return spec, nil
}

// Validate rejects a spec that names no shard — a count below 1 or an
// index outside [0, Count) — with a *SpecError, so a spec built in code
// is held to the same rule as a parsed one.
func (s Spec) Validate() error {
	if reason := s.invalid(); reason != "" {
		return &SpecError{Spec: s.String(), Reason: reason}
	}
	return nil
}

// invalid says why s names no shard, or returns "" if it names one.
func (s Spec) invalid() string {
	if s.Count < 1 {
		return fmt.Sprintf("shard count %d must be at least 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Sprintf("shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return ""
}

// String renders the spec as the CLI spells it.
func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Owns reports whether the spec's shard owns the cell with content hash
// hash (see Assign).
func (s Spec) Owns(hash string) bool { return Assign(hash, s.Count) == s.Index }

// Assign maps a cell's content hash to its owning shard in [0, n) by
// highest-random-weight (rendezvous) hashing: each shard's weight for the
// cell is a hash over (cell hash, shard index), and the highest weight
// owns it. The assignment is a pure function of (hash, n) — every
// participant computes it identically — and reshaping is minimal: going
// from n to n+1 shards moves exactly the cells whose new weight wins, all
// of them to shard n, and no cell between surviving shards.
func Assign(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	var (
		best  int
		bestW [sha256.Size]byte
	)
	for i := 0; i < n; i++ {
		w := sha256.Sum256(fmt.Appendf(nil, "shard.Assign|%s|%d", hash, i))
		if i == 0 || bytes.Compare(w[:], bestW[:]) > 0 {
			best, bestW = i, w
		}
	}
	return best
}

// Cell is one planned sweep cell: its position and human identity in the
// sweep, its content-addressed cache key, and the simulation job itself.
type Cell struct {
	// Index is the cell's position in sweep order (parameter-major, the
	// order sweep.RunPool returns results in).
	Index int
	// X and Workload identify the cell to humans ("x=16/gcc").
	X        int
	Workload string
	// Key is the cell's content address in the shared store; Hash is
	// Key.Hash(), the string every assignment and manifest speaks.
	Key  cache.Key
	Hash string
	// Sim is the runnable cell.
	Sim sim.Cell
}

// Name renders the cell's human identity.
func (c Cell) Name() string { return fmt.Sprintf("x=%d/%s", c.X, c.Workload) }

// Plan is the deterministic enumeration of one sweep's cell space. Two
// plans over the same sweep definition are identical on every machine:
// same cells, same order, same hashes, same ID.
type Plan struct {
	// ID fingerprints the sweep: a hash over every cell's content hash in
	// sweep order. Manifests carry it so a merge cannot silently combine
	// shards of different sweeps.
	ID string
	// Cells holds every cell in sweep order.
	Cells []Cell
}

// NewPlan enumerates the sweep's cells and derives their cache keys,
// without simulating anything. Every cell must be cacheable — the shared
// store is the only channel a shard's results travel through — so a
// predictor configuration with no canonical key (predictor.ConfigKeyer)
// is rejected with an error naming the cell.
func NewPlan(factory sweep.Factory, xs []int, profs []workload.Profile, instrBudget int64, opts sim.Options) (*Plan, error) {
	simCells := sweep.Cells(factory, xs, profs, opts)
	if len(simCells) == 0 {
		return nil, fmt.Errorf("shard: empty sweep (%d values x %d benchmarks)", len(xs), len(profs))
	}
	p := &Plan{Cells: make([]Cell, len(simCells))}
	id := sha256.New()
	for i, sc := range simCells {
		x := xs[i/len(profs)]
		k, ok, err := sim.CellKey(sc, instrBudget)
		if err != nil {
			return nil, fmt.Errorf("shard: keying x=%d/%s: %w", x, sc.Profile.Name, err)
		}
		if !ok {
			return nil, fmt.Errorf("shard: x=%d/%s has no canonical configuration key, so no shard could answer for it through the shared store", x, sc.Profile.Name)
		}
		h := k.Hash()
		p.Cells[i] = Cell{Index: i, X: x, Workload: sc.Profile.Name, Key: k, Hash: h, Sim: sc}
		io.WriteString(id, h)
		id.Write([]byte{'\n'})
	}
	p.ID = hex.EncodeToString(id.Sum(nil))
	return p, nil
}

// Owned returns the cells Assign gives to the spec's shard, in sweep
// order.
func (p *Plan) Owned(spec Spec) []Cell {
	var owned []Cell
	for _, c := range p.Cells {
		if spec.Owns(c.Hash) {
			owned = append(owned, c)
		}
	}
	return owned
}

// RunShard is the worker mode: simulate exactly the cells the spec's
// shard owns, with every result Put through the shared store (pool.Cache,
// required — it is the only channel results travel through), then record
// the shard's completion manifest in dir. It returns the owned cells.
//
// A re-run after a crash is the same call: cells the killed run already
// completed are answered from the store (hits, no simulation), so the
// restart pays only for the unfinished remainder.
func RunShard(ctx context.Context, p *Plan, spec Spec, instrBudget int64, pool sim.PoolOptions, dir string) ([]Cell, error) {
	if pool.Cache == nil {
		return nil, fmt.Errorf("shard: a worker needs the shared result store (PoolOptions.Cache) — it is how shards hand results to the merge")
	}
	owned := p.Owned(spec)
	cells := make([]sim.Cell, len(owned))
	for i, c := range owned {
		cells[i] = c.Sim
	}
	if _, err := sim.RunCells(ctx, cells, instrBudget, pool); err != nil {
		return nil, fmt.Errorf("shard %s: %w", spec, err)
	}
	if err := WriteManifest(dir, p.Manifest(spec)); err != nil {
		return nil, err
	}
	return owned, nil
}
