// Result-cache integration: RunCells consults a content-addressed store
// (internal/cache) before simulating, so a cell whose exact inputs —
// workload profile, instruction budget, predictor configuration,
// result-affecting options — were simulated before is answered from disk.
// This file owns the key derivation: internal/cache hashes opaque strings;
// what goes INTO those strings (and what is deliberately left out) is
// decided here, next to the simulator that defines what affects a Result.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"ev8pred/internal/cache"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
	"ev8pred/internal/workload"
)

// canonicalOptions serializes exactly the result-affecting options.
// Batch is deliberately excluded: it chooses a schedule, and results are
// byte-identical across schedules (the batch differential suite pins
// that), so a scalar run may answer a batched one and vice versa. The
// pool's schedule (PoolOptions) is not part of Options at all.
// Collect IS included — it decides whether Result.Stats exists.
func canonicalOptions(o Options) string {
	return fmt.Sprintf("mode=%v/%v/%d|max=%d|delay=%d|warmup=%d|lenient=%v|collect=%v",
		o.Mode.Compressed, o.Mode.PathBit, o.Mode.DelayBlocks,
		o.MaxBranches, o.UpdateDelay, o.Warmup, o.LenientFlow, o.Collect)
}

// workloadKey canonicalizes the branch-stream definition: every profile
// field (the workload generator is a pure function of the profile) plus
// the instruction budget.
func workloadKey(prof workload.Profile, instrBudget int64) (string, error) {
	js, err := json.Marshal(prof)
	if err != nil {
		return "", fmt.Errorf("sim: canonicalizing profile %s: %w", prof.Name, err)
	}
	return fmt.Sprintf("profile=%s|instr=%d", js, instrBudget), nil
}

// CellKey derives the cache key for one cell. ok is false when the cell
// cannot be cached: its predictor does not implement
// predictor.ConfigKeyer, or reports an empty key (a configuration —
// e.g. caller-supplied index functions — that no canonical string can
// capture). The configuration half of the key comes from one predictor
// built by the cell's factory and then discarded. Cells built by
// SuiteCells share that build: the first CellKey on any of them runs the
// factory and the rest reuse its key. Any other cell builds one
// predictor per call.
func CellKey(c Cell, instrBudget int64) (cache.Key, bool, error) {
	return (&keyer{budget: instrBudget}).key(c)
}

// keyer derives the cache keys of one fan-out's cells. With a non-nil
// workloads map it canonicalizes each distinct profile once. Profiles
// equal under == share one entry; the only such pair json.Marshal tells
// apart is a float field holding 0 in one and -0 in the other.
type keyer struct {
	budget    int64
	workloads map[workload.Profile]string
}

// key derives c's cache key, as CellKey documents.
func (k *keyer) key(c Cell) (cache.Key, bool, error) {
	config, err := c.configKey()
	if err != nil {
		return cache.Key{}, false, fmt.Errorf("sim: building predictor for %s: %w", c.Profile.Name, err)
	}
	if config == "" {
		return cache.Key{}, false, nil
	}
	wl, ok := k.workloads[c.Profile]
	if !ok {
		if wl, err = workloadKey(c.Profile, k.budget); err != nil {
			return cache.Key{}, false, err
		}
		if k.workloads != nil {
			k.workloads[c.Profile] = wl
		}
	}
	return cache.Key{Workload: wl, Config: config, Options: canonicalOptions(c.Opts)}, true, nil
}

// configMemo is the configuration key that the cells of one SuiteCells
// call share, filled by the first configKey on any of them.
type configMemo struct {
	once sync.Once
	key  string
	err  error
}

// configKey returns the canonical configuration key of the cell's
// predictor, "" when it has none, or the factory's error. It reads the
// cell's shared memo when it has one and builds a predictor otherwise.
func (c Cell) configKey() (string, error) {
	if c.memo == nil {
		return factoryConfigKey(c.Factory)
	}
	c.memo.once.Do(func() { c.memo.key, c.memo.err = factoryConfigKey(c.Factory) })
	return c.memo.key, c.memo.err
}

// factoryConfigKey builds one predictor from f and returns its
// configuration key, "" when it implements no predictor.ConfigKeyer.
func factoryConfigKey(f Factory) (string, error) {
	p, err := f()
	if err != nil {
		return "", err
	}
	if keyer, ok := p.(predictor.ConfigKeyer); ok {
		return keyer.ConfigKey(), nil
	}
	return "", nil
}

// ResultFromEntry rebuilds a Result from a cached entry — the inverse of
// the conversion Put-side caching applies. The shard merge step
// (internal/shard) uses it to turn a completed distributed sweep's cache
// reads back into the Results a single-process run would have produced.
func ResultFromEntry(e *cache.Entry) Result {
	r := Result{
		Predictor:    e.Predictor,
		Workload:     e.Workload,
		Branches:     e.Branches,
		Mispredicts:  e.Mispredicts,
		Instructions: e.Instructions,
		SizeBits:     e.SizeBits,
	}
	if e.Stats != nil {
		cs := make(stats.Counters, len(*e.Stats))
		copy(cs, *e.Stats)
		r.Stats = &cs
	}
	return r
}

// resultEntry converts a freshly computed Result into its cache entry.
func resultEntry(k cache.Key, r Result) *cache.Entry {
	e := &cache.Entry{
		Key:          k,
		Predictor:    r.Predictor,
		Workload:     r.Workload,
		Branches:     r.Branches,
		Mispredicts:  r.Mispredicts,
		Instructions: r.Instructions,
		SizeBits:     r.SizeBits,
	}
	if r.Stats != nil {
		cs := make(stats.Counters, len(*r.Stats))
		copy(cs, *r.Stats)
		e.Stats = &cs
	}
	return e
}

// logf forwards a harness diagnostic to the pool's Log hook, if any.
func (p PoolOptions) logf(format string, args ...interface{}) {
	if p.Log != nil {
		p.Log(format, args...)
	}
}

// runCellsCached is the RunCells path with a result cache attached: a
// serial pre-pass resolves every cell against the store, hits are
// answered from disk (with their Progress events), and only the misses
// fan out through the normal schedule, after which their results are
// stored. Hit results are byte-identical to recomputation — the cache
// correctness suite pins that — so the only observable differences are
// speed and Progress event timing (hits complete first).
func runCellsCached(ctx context.Context, cells []Cell, instrBudget int64, pool PoolOptions) ([]Result, error) {
	store := pool.Cache
	results := make([]Result, len(cells))
	type miss struct {
		index     int
		key       cache.Key
		cacheable bool
	}
	var (
		misses []miss
		hits   []int
	)
	keys := keyer{budget: instrBudget, workloads: make(map[workload.Profile]string)}
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k, ok, err := keys.key(c)
		if err != nil {
			return nil, err
		}
		if !ok {
			misses = append(misses, miss{index: i})
			continue
		}
		e, hit, gerr := store.Get(k)
		if gerr != nil {
			pool.logf("cache: %v (recomputing)", gerr)
		}
		if !hit {
			misses = append(misses, miss{index: i, key: k, cacheable: true})
			continue
		}
		results[i] = ResultFromEntry(e)
		hits = append(hits, i)
	}

	if pool.Progress != nil {
		for done, i := range hits {
			pool.Progress(cellDone(i, done+1, len(cells), results[i]))
		}
	}
	if len(misses) == 0 {
		return results, nil
	}

	sub := make([]Cell, len(misses))
	for j, m := range misses {
		sub[j] = cells[m.index]
	}
	subPool := pool
	subPool.Cache = nil
	if pool.Progress != nil {
		offset := len(hits)
		progress := pool.Progress
		// The inner pool serializes Progress calls, so the remap needs no
		// lock of its own.
		subPool.Progress = func(e CellDone) {
			e.Index = misses[e.Index].index
			e.Done += offset
			e.Total = len(cells)
			progress(e)
		}
	}
	rs, err := RunCells(ctx, sub, instrBudget, subPool)
	if err != nil {
		return nil, err
	}
	for j, m := range misses {
		results[m.index] = rs[j]
		if !m.cacheable {
			continue
		}
		if perr := store.Put(resultEntry(m.key, rs[j])); perr != nil {
			pool.logf("cache: %v (result kept, not stored)", perr)
		}
	}
	return results, nil
}
