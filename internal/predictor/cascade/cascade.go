// Package cascade implements the prediction hierarchy the paper's
// conclusion proposes as the future beyond brute-force scaling (§9):
// "one may consider further extending the hierarchy of predictors with
// increased accuracies and delays: line predictor, global history branch
// prediction, backup branch predictor. The backup branch predictor would
// deliver its prediction later than the global history branch predictor."
//
// A Cascade wraps a fast primary predictor (e.g. the EV8) and a slower
// backup predictor (e.g. a perceptron, the paper's named candidate). The
// backup's prediction arrives late: when it disagrees with the primary,
// the front end is redirected — a small, fixed-cost bubble that is still
// far cheaper than a full execute-time misprediction. The Cascade's
// Predict returns the backup's (final) direction; Overrides() counts the
// disagreements so a performance model can charge the redirect cost.
//
// A confidence filter keeps the override rate useful: the backup only
// overrides when its own confidence is high and repeated experience shows
// it is right more often than the primary at this branch (a small
// override-counter table, in the spirit of Jacobsen-style confidence
// estimation).
package cascade

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// Confident is optionally implemented by backup predictors that can
// report a confidence estimate for their last Predict (e.g. the
// perceptron's output magnitude). Without it, the cascade relies on the
// override-counter table alone.
type Confident interface {
	// Confidence returns a non-negative confidence for the prediction
	// of info; larger is more confident. The threshold meaning is
	// implementation-defined; the cascade compares against
	// MinConfidence.
	Confidence(info *history.Info) int32
}

// Config parameterizes a Cascade.
type Config struct {
	// OverrideEntries sizes the per-branch override-permission table
	// (power of two; default 4096).
	OverrideEntries int
	// MinConfidence gates overrides for Confident backups (default 0:
	// any confidence).
	MinConfidence int32
	// Name overrides the derived report name.
	Name string
}

// blockObserver is a component that observes every fetch block
// (sim.BlockObserver; the EV8's §6.2 bank sequencer).
type blockObserver interface{ ObserveBlock(frontend.Block) }

// Cascade is a two-level predictor hierarchy.
type Cascade struct {
	primary   predictor.Predictor
	backup    predictor.Predictor
	conf      Confident       // nil when the backup has no confidence signal
	observers []blockObserver // the components that observe fetch blocks

	// override holds 2-bit counters: taken (>=2) means "the backup has
	// been beating the primary here — let it override".
	override   *counter.Array
	overBits   int
	minConf    int32
	name       string
	overrides  int64
	usefulOver int64
}

// New builds a cascade of primary and backup.
func New(primary, backup predictor.Predictor, cfg Config) (*Cascade, error) {
	if primary == nil || backup == nil {
		return nil, fmt.Errorf("cascade: nil component")
	}
	if cfg.OverrideEntries == 0 {
		cfg.OverrideEntries = 4096
	}
	if !bitutil.IsPow2(uint64(cfg.OverrideEntries)) {
		return nil, fmt.Errorf("cascade: override entries %d not a power of two", cfg.OverrideEntries)
	}
	c := &Cascade{
		primary:  primary,
		backup:   backup,
		override: counter.NewArray(cfg.OverrideEntries, counter.WeakTaken),
		overBits: bitutil.Log2(uint64(cfg.OverrideEntries)),
		minConf:  cfg.MinConfidence,
		name:     cfg.Name,
	}
	if conf, ok := backup.(Confident); ok {
		c.conf = conf
	}
	for _, p := range []predictor.Predictor{primary, backup} {
		if o, ok := p.(blockObserver); ok {
			c.observers = append(c.observers, o)
		}
	}
	if c.name == "" {
		c.name = fmt.Sprintf("cascade(%s->%s)", primary.Name(), backup.Name())
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(primary, backup predictor.Predictor, cfg Config) *Cascade {
	c, err := New(primary, backup, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cascade) overrideIndex(pc uint64) uint64 {
	return predictor.PCBits(pc, c.overBits)
}

// decide returns the primary and final predictions.
func (c *Cascade) decide(info *history.Info) (primary, final bool) {
	primary = c.primary.Predict(info)
	backup := c.backup.Predict(info)
	final = primary
	if backup != primary {
		allowed := c.override.Taken(c.overrideIndex(info.PC))
		if allowed && (c.conf == nil || c.conf.Confidence(info) >= c.minConf) {
			final = backup
		}
	}
	return primary, final
}

// Predict implements predictor.Predictor: the (possibly overridden) final
// direction.
func (c *Cascade) Predict(info *history.Info) bool {
	_, final := c.decide(info)
	return final
}

// Update implements predictor.Predictor: both levels always train; the
// override table trains toward the backup wherever the two levels
// disagreed, and override statistics are accumulated.
func (c *Cascade) Update(info *history.Info, taken bool) {
	primary := c.primary.Predict(info)
	backup := c.backup.Predict(info)
	if backup != primary {
		_, final := c.decide(info)
		if final != primary {
			c.overrides++
			if final == taken {
				c.usefulOver++
			}
		}
		c.override.Update(c.overrideIndex(info.PC), backup == taken)
	}
	c.primary.Update(info, taken)
	c.backup.Update(info, taken)
}

// ObserveBlock forwards each fetch block to every component that
// observes blocks, so an EV8 inside the cascade runs its bank sequencer
// over the same block stream as it would alone.
func (c *Cascade) ObserveBlock(b frontend.Block) {
	for _, o := range c.observers {
		o.ObserveBlock(b)
	}
}

// Overrides returns the number of late redirects the backup caused and
// how many of them were correct.
func (c *Cascade) Overrides() (total, useful int64) {
	return c.overrides, c.usefulOver
}

// Name implements predictor.Predictor.
func (c *Cascade) Name() string { return c.name }

// SizeBits implements predictor.Predictor.
func (c *Cascade) SizeBits() int {
	return c.primary.SizeBits() + c.backup.SizeBits() + 2*c.override.Len()
}

var _ predictor.Predictor = (*Cascade)(nil)
