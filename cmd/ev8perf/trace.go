package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary: a chunk of generator,
// front-end or predictor work, a simulated benchmark, or a served job.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	start, end int64
	parent     int // index into the same tracer's spans; -1 for a root
	op         int // the op (cell group or job) the span belongs to
}

// tracer records spans in memory for one goroutine. A nil *tracer is the
// "spans off" configuration: begin and end cost one nil check, so the
// difference between a run with a live tracer and one without is the
// tracing overhead itself.
type tracer struct {
	epoch time.Time
	lane  int // Chrome trace thread id: the goroutine the spans ran on
	spans []span
}

func newTracer(epoch time.Time, lane int) *tracer {
	return &tracer{epoch: epoch, lane: lane}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// record adds an already-timed span (client-side timestamps of a served
// job) and returns its index.
func (t *tracer) record(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), parent: parent, op: op})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of its interval that its child
// spans cover (overlapping children count once, and a child's time
// outside its parent counts for nothing).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.name] += (s.end - s.start) - covered(s.start, s.end, children[i])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for k, v := range iv {
		switch {
		case k == 0:
			curA, curB = v[0], v[1]
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	return total + curB - curA
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the tracers' spans as Chrome trace-event JSON.
// Each tracer is one thread row; args carry the op id and parent span.
func writeChromeTrace(out io.Writer, workload string, tracers []*tracer) error {
	w := bufio.NewWriter(out)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tracers {
		for _, s := range t.spans {
			args := map[string]any{"op": s.op}
			if s.parent >= 0 {
				args["parent"] = t.spans[s.parent].name
			}
			data, err := json.Marshal(chromeEvent{Name: s.name, Cat: workload, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: t.lane, Args: args})
			if err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.Write(data)
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
