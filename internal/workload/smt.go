package workload

import (
	"io"

	"ev8pred/internal/trace"
)

// Interleaved merges several branch sources into one stream the way an SMT
// front end would observe it: round-robin over the threads with a quantum
// of roughly quantum instructions per switch (the EV8 fetches for one
// thread per cycle and rotates among ready threads). Records are tagged
// with their thread id; a thread whose source is exhausted drops out.
//
// The interleaved stream is what makes the §3 SMT argument testable: a
// predictor with one shared history register sees destructive cross-thread
// interference, while per-thread histories (history.Info.Thread plus a
// per-thread tracker) do not.
type Interleaved struct {
	srcs    []trace.Source
	quantum int64
	cur     int
	used    int64
	dead    []bool
	alive   int
	err     error // terminal: io.EOF or a thread's failure
}

// NewInterleaved builds an SMT interleaver. quantum must be >= 1.
func NewInterleaved(srcs []trace.Source, quantum int64) *Interleaved {
	if quantum < 1 {
		quantum = 1
	}
	return &Interleaved{
		srcs:    srcs,
		quantum: quantum,
		dead:    make([]bool, len(srcs)),
		alive:   len(srcs),
	}
}

// NextBatch implements trace.Source. Each record is read alone from the
// current thread's source (dst[i:i+1]), so no thread is read past the
// record that ends its quantum. A thread whose source ends cleanly drops
// out; a thread's failure ends the stream with that error.
func (iv *Interleaved) NextBatch(dst []trace.Branch) (int, error) {
	n := 0
	for n < len(dst) && iv.err == nil {
		if iv.alive == 0 {
			iv.err = io.EOF
			break
		}
		if iv.dead[iv.cur] || iv.used >= iv.quantum {
			iv.rotate()
			continue
		}
		k, err := iv.srcs[iv.cur].NextBatch(dst[n : n+1])
		if k == 1 {
			iv.used += int64(dst[n].Gap) + 1
			dst[n].Thread = iv.cur
			n++
		}
		if err == io.EOF {
			iv.dead[iv.cur] = true
			iv.alive--
		} else if err != nil {
			iv.err = err
		}
	}
	return n, iv.err
}

func (iv *Interleaved) rotate() {
	iv.used = 0
	for i := 0; i < len(iv.srcs); i++ {
		iv.cur = (iv.cur + 1) % len(iv.srcs)
		if !iv.dead[iv.cur] {
			return
		}
	}
}
