//go:build race

package workload

// raceEnabled reports whether the race detector is compiled in; the
// build-footprint test skips under it (the detector's shadow bookkeeping
// allocates and would make the counts inexact).
const raceEnabled = true
