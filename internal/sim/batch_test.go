package sim

import (
	"testing"

	"ev8pred/internal/core"
	"ev8pred/internal/ev8"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/predictor/cascade"
	"ev8pred/internal/predictor/egskew"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/predictor/perceptron"
)

// TestBatchEligibility pins the rule the engine schedules by, since no
// option can demand the kernel: under BatchAuto a member resolves through
// the batch kernel exactly when its predictor implements
// predictor.BatchPredictor and, if it observes fetch blocks, the batched
// block contract — at every update delay. A composite (a cascade around
// the EV8, which forwards blocks but has no kernel) and a predictor
// without the kernel (bimodal) run per branch, and BatchOff runs every
// member per branch. A block observer off the kernel observes per branch.
func TestBatchEligibility(t *testing.T) {
	ev8Cascade := func() (predictor.Predictor, error) {
		primary, err := ev8.New(ev8.DefaultConfig())
		if err != nil {
			return nil, err
		}
		backup, err := perceptron.New(256, 12)
		if err != nil {
			return nil, err
		}
		return cascade.New(primary, backup, cascade.Config{})
	}
	for _, tc := range []struct {
		name     string
		make     Factory
		kernel   bool // a batch member under BatchAuto
		observes bool // observes fetch blocks
	}{
		{"2bcg", func() (predictor.Predictor, error) { return core.New(core.Config256K()) }, true, false},
		{"gshare", func() (predictor.Predictor, error) { return gshare.New(1<<12, 12) }, true, false},
		{"egskew", func() (predictor.Predictor, error) { return egskew.New(1<<12, 12, true) }, true, false},
		{"ev8", func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }, true, true},
		{"cascade", ev8Cascade, false, true},
		{"bimodal", func() (predictor.Predictor, error) { return bimodal.New(1 << 12) }, false, false},
	} {
		for _, delay := range []int{0, 1, 8, 64, 1500} {
			for _, mode := range []BatchMode{BatchAuto, BatchOff} {
				p, err := tc.make()
				if err != nil {
					t.Fatal(err)
				}
				m := newMember(p, Options{UpdateDelay: delay, Batch: mode})
				batch := tc.kernel && mode == BatchAuto
				if (m.bp != nil) != batch {
					t.Errorf("%s delay=%d batch=%d: batch member %v, want %v", tc.name, delay, mode, m.bp != nil, batch)
				}
				if (m.bbo != nil) != (batch && tc.observes) {
					t.Errorf("%s delay=%d batch=%d: banked replay %v, want %v", tc.name, delay, mode, m.bbo != nil, batch && tc.observes)
				}
				if (m.obs != nil) != (tc.observes && !batch) {
					t.Errorf("%s delay=%d batch=%d: per-branch block observer %v, want %v", tc.name, delay, mode, m.obs != nil, tc.observes && !batch)
				}
			}
		}
	}
}
