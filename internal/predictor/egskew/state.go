package egskew

import (
	"fmt"

	"ev8pred/internal/predictor"
	"ev8pred/internal/snapshot"
)

var _ predictor.Snapshotter = (*EGskew)(nil)
var _ predictor.ConfigKeyer = (*EGskew)(nil)

const stateLabel = "egskew/v1"

// ConfigKey implements predictor.ConfigKeyer. The skewing family is a
// deterministic function of the bank width (skew.NewFamily), so bank size,
// history length and update policy pin the behavior completely.
func (e *EGskew) ConfigKey() string {
	return fmt.Sprintf("egskew|entries=%d|hist=%d|partial=%v", e.bim.Len(), e.histLen, e.partial)
}

// SnapshotState implements predictor.Snapshotter: the three counter banks
// plus the attribution counters.
func (e *EGskew) SnapshotState() []byte {
	enc := snapshot.NewEncoder(stateLabel)
	enc.String(e.ConfigKey())
	enc.Words(e.bim.StateWords())
	enc.Words(e.g0.StateWords())
	enc.Words(e.g1.StateWords())
	enc.Bool(e.st != nil)
	if e.st != nil {
		for _, v := range e.st.fields() {
			enc.Int64(*v)
		}
	}
	return enc.Finish()
}

// RestoreState implements predictor.Snapshotter. The receiver is unchanged
// on error.
func (e *EGskew) RestoreState(data []byte) error {
	d, err := snapshot.NewDecoder(data, stateLabel)
	if err != nil {
		return err
	}
	key := d.String()
	var banks [3][]uint64
	for k, arr := range [3]interface{ WordCount() int }{e.bim, e.g0, e.g1} {
		banks[k] = d.WordsExact(arr.WordCount())
	}
	var st *egskewStats
	if d.Bool() {
		st = &egskewStats{}
		for _, v := range st.fields() {
			*v = d.Int64()
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if key != e.ConfigKey() {
		return fmt.Errorf("%w: snapshot of %q cannot restore into %q",
			snapshot.ErrBadSnapshot, key, e.ConfigKey())
	}
	for k, arr := range [3]interface{ LoadWords([]uint64) error }{e.bim, e.g0, e.g1} {
		if err := arr.LoadWords(banks[k]); err != nil {
			return fmt.Errorf("%w: %v", snapshot.ErrBadSnapshot, err)
		}
	}
	e.st = st
	return nil
}

// fields enumerates every attribution counter in a fixed serialization
// order, shared by encode and decode so they can never drift apart.
func (st *egskewStats) fields() []*int64 {
	return []*int64{
		&st.updates, &st.mispredicts,
		&st.bankWrongOnMisp[0], &st.bankWrongOnMisp[1], &st.bankWrongOnMisp[2],
		&st.bankWrongAbsorbed[0], &st.bankWrongAbsorbed[1], &st.bankWrongAbsorbed[2],
		&st.correctStrengthen, &st.mispFull, &st.totalPolicy,
		&st.predFlips[0], &st.predFlips[1], &st.predFlips[2],
	}
}
