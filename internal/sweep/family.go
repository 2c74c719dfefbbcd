// Predictor-family roster: the (scheme, param) → Factory mapping that
// Spec.Compile resolves for cmd/ev8sweep's -scheme/-param flags and the
// serving layer's experiment specs alike (docs/SERVING.md): one factory
// means identical predictor configurations, identical cache keys, and
// therefore results byte-identical between a spec submitted over HTTP
// and the equivalent CLI invocation.
package sweep

import (
	"fmt"

	"ev8pred/internal/core"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/perceptron"
)

// FamilyFactory maps (scheme, param) to a family constructor — how the
// swept integer becomes a predictor configuration. Unknown combinations
// return an error naming the supported roster.
func FamilyFactory(scheme, param string) (Factory, error) {
	switch scheme + "/" + param {
	case "gshare/history":
		return func(h int) (predictor.Predictor, error) {
			return gshare.New(1024*1024, h)
		}, nil
	case "gshare/size":
		return func(log2 int) (predictor.Predictor, error) {
			return gshare.New(1<<uint(log2), min(log2+4, 32))
		}, nil
	case "2bcg/history":
		return func(h int) (predictor.Predictor, error) {
			c := core.Config512K()
			// Scale the three lengths around the G1 value, keeping
			// the paper's G0 <= Meta <= G1 ordering (§4.5).
			c.Banks[core.G1].HistLen = h
			c.Banks[core.Meta].HistLen = h * 3 / 4
			c.Banks[core.G0].HistLen = h * 2 / 3
			c.Name = fmt.Sprintf("2bcg-512K-g1h%d", h)
			return core.New(c)
		}, nil
	case "2bcg/size":
		return func(log2 int) (predictor.Predictor, error) {
			c := core.Config512K()
			for b := core.BIM; b < core.NumBanks; b++ {
				c.Banks[b].Entries = 1 << uint(log2)
			}
			c.Name = fmt.Sprintf("2bcg-4x2^%d", log2)
			return core.New(c)
		}, nil
	case "perceptron/history":
		return func(h int) (predictor.Predictor, error) {
			return perceptron.New(1024, h)
		}, nil
	default:
		return nil, fmt.Errorf("sweep: unsupported scheme/param %s/%s (want gshare/history, gshare/size, 2bcg/history, 2bcg/size or perceptron/history)", scheme, param)
	}
}
