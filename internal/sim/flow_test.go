package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
)

// flowBreak is a well-formed stream whose second record does not continue
// its thread's flow: the taken branch at 0x1000 goes to 0x2000, but the
// next record's gap starts at 0x5000. trace.Writer encodes it (ΔPC and
// the gap are free fields), so a trace file can carry it.
func flowBreak() []trace.Branch {
	return []trace.Branch{
		{PC: 0x1000, Target: 0x2000, Taken: true, Kind: trace.Cond},
		{PC: 0x5000, Target: 0x5100, Kind: trace.Cond},
	}
}

// checkFlowErr requires an immediate error wrapping frontend.ErrFlow that
// names the thread and the stream index of the offending record.
func checkFlowErr(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, frontend.ErrFlow) {
		t.Fatalf("%s: err = %v, want frontend.ErrFlow", what, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "record 1") || !strings.Contains(msg, "thread 0") {
		t.Errorf("%s: error %q does not name the thread and the record", what, msg)
	}
}

// TestFlowBreakIsError runs a flow-breaking stream, from a trace.Slice and
// from a file written by trace.Writer, through every entry point: each
// returns ErrFlow as an immediate error instead of panicking.
func TestFlowBreakIsError(t *testing.T) {
	var file bytes.Buffer
	w, err := trace.NewWriter(&file)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range flowBreak() {
		if err := w.Write(b); err != nil {
			t.Fatalf("trace.Writer rejected the record: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() trace.Source{
		"slice": func() trace.Source { return trace.NewSlice(flowBreak()) },
		"file": func() trace.Source {
			r, err := trace.NewReader(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	ev8f := func() (predictor.Predictor, error) { return ev8.New(ev8.DefaultConfig()) }
	for name, src := range sources {
		for _, batch := range []BatchMode{BatchAuto, BatchOff} {
			opts := Options{Mode: frontend.ModeEV8(), Batch: batch}
			_, err := Run(ev8.MustNew(ev8.DefaultConfig()), src(), opts)
			checkFlowErr(t, name+" Run", err)
			_, err = RunEnsemble([]Factory{ev8f, ev8f}, src(), opts)
			checkFlowErr(t, name+" RunEnsemble", err)
			_, err = RunFrontEnd(ev8.MustNew(ev8.DefaultConfig()), src(), opts, FrontEndConfig{})
			checkFlowErr(t, name+" RunFrontEnd", err)
			_, err = RunFrontEnd(nil, src(), opts, FrontEndConfig{})
			checkFlowErr(t, name+" oracle RunFrontEnd", err)
		}
	}

	// ResumeFrom: a checkpoint taken after the first record, resumed over
	// a continuation whose first record breaks the flow.
	opts := Options{Mode: frontend.ModeEV8(), MaxBranches: 1}
	_, ck, err := RunCheckpoint(ev8.MustNew(ev8.DefaultConfig()), trace.NewSlice(flowBreak()), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxBranches = 0
	_, err = ResumeFrom(ev8.MustNew(ev8.DefaultConfig()), trace.NewSlice(flowBreak()[1:]), opts, ck)
	checkFlowErr(t, "ResumeFrom", err)
}
