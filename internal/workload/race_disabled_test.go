//go:build !race

package workload

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
