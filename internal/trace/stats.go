package trace

import (
	"fmt"
	"io"
	"sort"
)

// Stats summarizes a branch stream; these are the quantities Table 2 of the
// paper reports for each benchmark, plus a few that other experiments need.
type Stats struct {
	// DynamicBranches is the number of dynamic CONDITIONAL branches
	// (what Table 2 of the paper reports).
	DynamicBranches int64
	// Transfers is the number of unconditional control transfers
	// (jumps, calls, returns).
	Transfers int64
	// Instructions is the total instruction count (all records plus gaps).
	Instructions int64
	// Taken is the number of taken dynamic conditional branches.
	Taken int64
	// StaticBranches is the number of distinct conditional-branch PCs.
	StaticBranches int
	// PerThread maps thread id to its dynamic conditional-branch count.
	PerThread map[int]int64

	pcs map[uint64]struct{}
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{
		PerThread: make(map[int]int64),
		pcs:       make(map[uint64]struct{}),
	}
}

// Add accumulates one dynamic record.
func (s *Stats) Add(b Branch) {
	s.Instructions += int64(b.Gap) + 1
	if b.Kind != Cond {
		s.Transfers++
		return
	}
	s.DynamicBranches++
	if b.Taken {
		s.Taken++
	}
	s.PerThread[b.Thread]++
	if _, seen := s.pcs[b.PC]; !seen {
		s.pcs[b.PC] = struct{}{}
		s.StaticBranches = len(s.pcs)
	}
}

// TakenRate returns the fraction of dynamic branches that were taken.
func (s *Stats) TakenRate() float64 {
	if s.DynamicBranches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.DynamicBranches)
}

// BranchesPerKI returns dynamic branches per 1000 instructions.
func (s *Stats) BranchesPerKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.DynamicBranches) / float64(s.Instructions)
}

// Threads returns the observed thread ids in ascending order.
func (s *Stats) Threads() []int {
	out := make([]int, 0, len(s.PerThread))
	for t := range s.PerThread {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("%d instr, %d dyn cond branches (%d static, %.1f%% taken, %.1f br/KI)",
		s.Instructions, s.DynamicBranches, s.StaticBranches,
		100*s.TakenRate(), s.BranchesPerKI())
}

// Measure drains a source, up to maxBranches conditional branches (<= 0
// means all), and returns its statistics with the stream's failure, or
// nil for a clean end. It never reads past the maxBranches-th branch.
func Measure(src Source, maxBranches int64) (*Stats, error) {
	s := NewStats()
	buf := make([]Branch, collectChunk)
	for maxBranches <= 0 || s.DynamicBranches < maxBranches {
		want := len(buf)
		if maxBranches > 0 {
			// Each record is at most one branch.
			want = int(min(int64(want), maxBranches-s.DynamicBranches))
		}
		n, err := src.NextBatch(buf[:want])
		for _, b := range buf[:n] {
			s.Add(b)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}
