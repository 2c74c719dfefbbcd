// Experiment specs: one sweep request, as a tenant submits it to the
// daemon (internal/serve) and as cmd/ev8sweep builds it from its flags,
// and its compilation into the exact (factory, values, profiles,
// options) inputs RunPool takes. Both surfaces compile through Compile
// — FamilyFactory, frontend.ModeByName, Benchmarks — so a served spec
// simulates exactly the cells of the equivalent ev8sweep invocation
// and (through the content-addressed cache) shares its results.
package sweep

import (
	"context"
	"fmt"
	"strings"

	"ev8pred/internal/frontend"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// Spec is one experiment request: a predictor config grid (scheme/param
// swept over values), a workload profile set, and simulation options.
// Each JSON field name is the ev8sweep flag that sets it. The zero
// values of the optional fields mean what the CLI defaults mean: all
// benchmarks, ghist mode, no stats. A spec sets no schedule: the pool
// chooses it (a field such as "ensemble" is unknown and rejected),
// because results are identical under every schedule.
type Spec struct {
	// Scheme and Param select the predictor family and the swept design
	// parameter (FamilyFactory is the roster).
	Scheme string `json:"scheme"`
	Param  string `json:"param"`
	// Values are the swept parameter values.
	Values []int `json:"values"`
	// Benchmarks names the workload profiles; empty or "all" means the
	// full suite (Benchmarks resolves them).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Instructions is the per-benchmark instruction budget.
	Instructions int64 `json:"instructions"`
	// Mode selects the information vector:
	// ghist|lghist|lghist-nopath|old-lghist|ev8 (empty = ghist).
	Mode string `json:"mode,omitempty"`
	// Stats enables component-attribution collection; the results then
	// carry the counters.
	Stats bool `json:"stats,omitempty"`
}

// SpecError is the typed rejection of an unusable spec: which field and
// why. The daemon answers it with 400 and code "bad_spec".
type SpecError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("bad spec: field %q: %s", e.Field, e.Reason)
}

// Compiled is a Spec resolved into the inputs RunPool takes.
type Compiled struct {
	Factory      Factory
	Values       []int
	Profiles     []workload.Profile
	Instructions int64
	Options      sim.Options
}

// NumCells is the compiled sweep's cell fan-out.
func (c *Compiled) NumCells() int { return len(c.Values) * len(c.Profiles) }

// Run sweeps the compiled spec (RunPoolCtx).
func (c *Compiled) Run(ctx context.Context, pool sim.PoolOptions) ([]Point, error) {
	return RunPoolCtx(ctx, c.Factory, c.Values, c.Profiles, c.Instructions, c.Options, pool)
}

// Compile validates sp and resolves it against the rosters. maxCells,
// when positive, caps the cell fan-out so one tenant cannot submit an
// unbounded grid.
func (sp *Spec) Compile(maxCells int) (*Compiled, error) {
	if len(sp.Values) == 0 {
		return nil, &SpecError{Field: "values", Reason: "at least one parameter value required"}
	}
	seen := make(map[int]bool, len(sp.Values))
	for _, v := range sp.Values {
		if seen[v] {
			return nil, &SpecError{Field: "values", Reason: fmt.Sprintf("value %d repeated", v)}
		}
		seen[v] = true
	}
	if sp.Instructions <= 0 {
		return nil, &SpecError{Field: "instructions", Reason: fmt.Sprintf("budget %d must be positive", sp.Instructions)}
	}
	factory, err := FamilyFactory(sp.Scheme, sp.Param)
	if err != nil {
		return nil, &SpecError{Field: "scheme/param", Reason: err.Error()}
	}
	modeName := sp.Mode
	if modeName == "" {
		modeName = "ghist"
	}
	mode, err := frontend.ModeByName(modeName)
	if err != nil {
		return nil, &SpecError{Field: "mode", Reason: err.Error()}
	}
	profs, err := Benchmarks(sp.Benchmarks)
	if err != nil {
		return nil, &SpecError{Field: "benchmarks", Reason: err.Error()}
	}
	c := &Compiled{
		Factory:      factory,
		Values:       sp.Values,
		Profiles:     profs,
		Instructions: sp.Instructions,
		Options:      sim.Options{Mode: mode, Collect: sp.Stats},
	}
	if cells := c.NumCells(); maxCells > 0 && cells > maxCells {
		return nil, &SpecError{Field: "values/benchmarks",
			Reason: fmt.Sprintf("spec fans out to %d cells, above this server's limit of %d", cells, maxCells)}
	}
	return c, nil
}

// Benchmarks resolves benchmark names, the one resolver behind every
// command's -benchmarks flag and a spec's benchmarks: no names, or the
// one name "all", is the full suite; otherwise each name (spaces
// trimmed) must be a workload profile.
func Benchmarks(names []string) ([]workload.Profile, error) {
	if len(names) == 0 || len(names) == 1 && strings.TrimSpace(names[0]) == "all" {
		return workload.Benchmarks(), nil
	}
	profs := make([]workload.Profile, 0, len(names))
	for _, name := range names {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		profs = append(profs, p)
	}
	return profs, nil
}
