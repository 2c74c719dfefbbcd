package gshare

import (
	"fmt"

	"ev8pred/internal/predictor"
	"ev8pred/internal/snapshot"
)

var _ predictor.Snapshotter = (*Gshare)(nil)
var _ predictor.ConfigKeyer = (*Gshare)(nil)

const stateLabel = "gshare/v1"

// ConfigKey implements predictor.ConfigKeyer. gshare's behavior is fully
// determined by table size and history length.
func (g *Gshare) ConfigKey() string {
	return fmt.Sprintf("gshare|entries=%d|hist=%d", g.table.Len(), g.histLen)
}

// SnapshotState implements predictor.Snapshotter: the counter table plus
// the attribution counters (so a restored run keeps reporting seamlessly).
func (g *Gshare) SnapshotState() []byte {
	e := snapshot.NewEncoder(stateLabel)
	e.String(g.ConfigKey())
	e.Words(g.table.StateWords())
	e.Bool(g.st != nil)
	if g.st != nil {
		for _, v := range g.st.fields() {
			e.Int64(*v)
		}
	}
	return e.Finish()
}

// RestoreState implements predictor.Snapshotter. The receiver is unchanged
// on error.
func (g *Gshare) RestoreState(data []byte) error {
	d, err := snapshot.NewDecoder(data, stateLabel)
	if err != nil {
		return err
	}
	key := d.String()
	words := d.WordsExact(g.table.WordCount())
	var st *gshareStats
	if d.Bool() {
		st = &gshareStats{}
		for _, v := range st.fields() {
			*v = d.Int64()
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if key != g.ConfigKey() {
		return fmt.Errorf("%w: snapshot of %q cannot restore into %q",
			snapshot.ErrBadSnapshot, key, g.ConfigKey())
	}
	if err := g.table.LoadWords(words); err != nil {
		return fmt.Errorf("%w: %v", snapshot.ErrBadSnapshot, err)
	}
	g.st = st
	return nil
}

// fields enumerates every attribution counter in a fixed serialization
// order, shared by encode and decode so they can never drift apart.
func (st *gshareStats) fields() []*int64 {
	return []*int64{
		&st.updates, &st.mispredicts, &st.mispWeak,
		&st.mispStrong, &st.strengthens, &st.predFlips,
	}
}
