// Experiment specs: the JSON request shape one tenant submits to the
// daemon, and its compilation into the exact (factory, values, profiles,
// options) inputs the sweep engine takes. Compilation goes through the
// same lookups as the CLIs — sweep.FamilyFactory, frontend.ModeByName,
// workload.ByName — so a spec served over HTTP simulates exactly the
// cells the equivalent ev8sweep invocation would, and (through the
// content-addressed cache) shares its results with it.
package serve

import (
	"fmt"

	"ev8pred/internal/frontend"
	"ev8pred/internal/sim"
	"ev8pred/internal/sweep"
	"ev8pred/internal/workload"
)

// Spec is one experiment request: a predictor config grid (scheme/param
// swept over values), a workload profile set, and simulation options.
// The zero values of the optional fields mean what the CLI defaults
// mean: all benchmarks, ghist mode, no stats. A spec sets no schedule:
// the server's pool chooses it (a field such as "ensemble" is unknown and
// rejected), because results are identical under every schedule.
type Spec struct {
	// Scheme and Param select the predictor family and the swept design
	// parameter, exactly as ev8sweep's -scheme/-param flags
	// (sweep.FamilyFactory is the single roster behind both).
	Scheme string `json:"scheme"`
	Param  string `json:"param"`
	// Values are the swept parameter values (-values).
	Values []int `json:"values"`
	// Benchmarks names the workload profiles (-benchmarks); empty means
	// the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Instructions is the per-benchmark instruction budget (-instructions).
	Instructions int64 `json:"instructions"`
	// Mode selects the information vector:
	// ghist|lghist|lghist-nopath|old-lghist|ev8 (-mode; empty = ghist).
	Mode string `json:"mode,omitempty"`
	// Stats enables component-attribution collection (-stats); the
	// returned runs then carry the counters, byte-identical to the CLI's.
	Stats bool `json:"stats,omitempty"`
}

// SpecError is the typed rejection of an unusable spec: which field and
// why. The HTTP layer maps it to 400 with code "bad_spec".
type SpecError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("serve: bad spec: field %q: %s", e.Field, e.Reason)
}

// compiledSpec is a Spec resolved into engine inputs.
type compiledSpec struct {
	factory sweep.Factory
	xs      []int
	profs   []workload.Profile
	instr   int64
	opts    sim.Options
	cells   int
}

// compile validates sp and resolves it against the same rosters the
// CLIs use. maxCells caps the job's cell fan-out so one tenant cannot
// submit an unbounded grid.
func (sp *Spec) compile(maxCells int) (*compiledSpec, error) {
	if len(sp.Values) == 0 {
		return nil, &SpecError{Field: "values", Reason: "at least one parameter value required"}
	}
	if sp.Instructions <= 0 {
		return nil, &SpecError{Field: "instructions", Reason: fmt.Sprintf("budget %d must be positive", sp.Instructions)}
	}
	factory, err := sweep.FamilyFactory(sp.Scheme, sp.Param)
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
	var profs []workload.Profile
	if len(sp.Benchmarks) == 0 {
		profs = workload.Benchmarks()
	} else {
		for _, name := range sp.Benchmarks {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, &SpecError{Field: "benchmarks", Reason: err.Error()}
			}
			profs = append(profs, p)
		}
	}
	cells := len(sp.Values) * len(profs)
	if maxCells > 0 && cells > maxCells {
		return nil, &SpecError{Field: "values/benchmarks",
			Reason: fmt.Sprintf("spec fans out to %d cells, above this server's limit of %d", cells, maxCells)}
	}
	return &compiledSpec{
		factory: factory,
		xs:      sp.Values,
		profs:   profs,
		instr:   sp.Instructions,
		// The exact Options ev8sweep builds for these flags.
		opts:  sim.Options{Mode: mode, Collect: sp.Stats},
		cells: cells,
	}, nil
}
