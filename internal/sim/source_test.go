package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// next reads one record from src with a size-1 NextBatch: the
// record-at-a-time reference. false means the stream ended, cleanly or
// not.
func next(src trace.Source) (trace.Branch, bool) {
	var one [1]trace.Branch
	n, _ := src.NextBatch(one[:])
	return one[0], n == 1
}

// drain reads src dry through a size-long buffer and returns the records
// and the terminal error. It fails the test on a call that returns
// neither records nor an error, or more records than the buffer holds.
func drain(t *testing.T, src trace.Source, size int) ([]trace.Branch, error) {
	t.Helper()
	buf := make([]trace.Branch, size)
	var out []trace.Branch
	for {
		n, err := src.NextBatch(buf)
		if n < 0 || n > size || (n == 0 && err == nil) {
			t.Fatalf("size %d: NextBatch = (%d, %v) after %d records", size, n, err, len(out))
		}
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// TestSourceContract holds every trace.Source implementation to the one
// contract: buffer sizes 1, 7 and 1024 deliver the same records; every
// call with a non-empty buffer returns records or an error; a clean
// stream ends in io.EOF, again on the next call; and a failed stream (a
// corrupt trace, a canceled context, a second thread under RunFrontEnd)
// returns its error again, with no records, on the next call. The stream
// pipeline is no source: its walked chunks are held to the same
// assertions by TestPipelineChunkContract.
func TestSourceContract(t *testing.T) {
	const budget = 60_000
	li, perl := benchProfiles(t, "li")[0], benchProfiles(t, "perl")[0]
	gen := func() *workload.Generator { return workload.MustNew(li, budget) }
	records, err := trace.Collect(gen(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	w, err := trace.NewWriter(&enc)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkTarget(512) // many chunks, so corruption leaves a prefix
	for _, b := range records {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0x40
	reader := func(t *testing.T, data []byte) trace.Source {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	canceledAfter := func(t *testing.T, limit int) (context.Context, *cancelAfter) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, &cancelAfter{Generator: gen(), limit: limit, cancel: cancel}
	}

	clean := []struct {
		name string
		open func(t *testing.T) trace.Source
	}{
		{"Slice", func(*testing.T) trace.Source { return trace.NewSlice(records) }},
		{"ForceThread", func(*testing.T) trace.Source { return &trace.ForceThread{Src: trace.NewSlice(records), Thread: 3} }},
		{"Reader", func(t *testing.T) trace.Source { return reader(t, data) }},
		{"Generator", func(*testing.T) trace.Source { return gen() }},
		{"Interleaved", func(*testing.T) trace.Source {
			return workload.NewInterleaved([]trace.Source{gen(), workload.MustNew(perl, budget)}, 500)
		}},
		{"cancel", func(t *testing.T) trace.Source {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return sourceWithCancel(ctx, gen())
		}},
		{"oneThread", func(*testing.T) trace.Source { return &oneThreadSource{src: gen()} }},
	}
	for _, c := range clean {
		t.Run(c.name, func(t *testing.T) {
			var want []trace.Branch
			for _, size := range []int{1, 7, 1024} {
				src := c.open(t)
				got, err := drain(t, src, size)
				if err != io.EOF {
					t.Fatalf("size %d: stream ended with %v, want io.EOF", size, err)
				}
				if n, err := src.NextBatch(make([]trace.Branch, size)); n != 0 || err != io.EOF {
					t.Errorf("size %d: NextBatch after the end = (%d, %v), want (0, io.EOF)", size, n, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d: %d records differ from size 1's %d", size, len(got), len(want))
				}
			}
			if len(want) == 0 {
				t.Fatal("empty stream")
			}
		})
	}

	failing := []struct {
		name string
		open func(t *testing.T) trace.Source
		want error
		// samePrefix: the records before the failure do not depend on the
		// buffer size (a cancellation lands between reads, so its prefix
		// does).
		samePrefix bool
	}{
		{"corrupt Reader", func(t *testing.T) trace.Source { return reader(t, corrupt) }, trace.ErrBadFormat, true},
		{"Interleaved over a corrupt Reader", func(t *testing.T) trace.Source {
			return workload.NewInterleaved([]trace.Source{workload.MustNew(perl, budget), reader(t, corrupt)}, 500)
		}, trace.ErrBadFormat, true},
		{"canceled cancel", func(t *testing.T) trace.Source {
			ctx, src := canceledAfter(t, 5000)
			return sourceWithCancel(ctx, src)
		}, ErrCanceled, false},
		{"oneThread over Interleaved", func(t *testing.T) trace.Source {
			return &oneThreadSource{src: workload.NewInterleaved([]trace.Source{gen(), workload.MustNew(perl, budget)}, 500)}
		}, ErrFrontEndOption, true},
	}
	for _, c := range failing {
		t.Run(c.name, func(t *testing.T) {
			var want []trace.Branch
			for _, size := range []int{1, 7, 1024} {
				src := c.open(t)
				got, err := drain(t, src, size)
				if !errors.Is(err, c.want) {
					t.Fatalf("size %d: stream ended with %v, want %v", size, err, c.want)
				}
				if n, err2 := src.NextBatch(make([]trace.Branch, size)); n != 0 || err2 != err {
					t.Errorf("size %d: NextBatch after the failure = (%d, %v), want (0, %v)", size, n, err2, err)
				}
				if len(got) == 0 {
					t.Errorf("size %d: no records before the failure", size)
				}
				if !c.samePrefix {
					continue
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d: %d records before the failure, size 1 had %d", size, len(got), len(want))
				}
			}
		})
	}
}
