package workload

import (
	"reflect"
	"runtime"
	"testing"
)

var sinkProgram *program

// maxBuildAllocs bounds the allocations of one buildProgram call, for
// every benchmark alike: the program, its two rng streams, the driver's
// call sites and call sequence, the per-function site counts, the
// function table, the statement, model, trip, switch and case arrays,
// the builder's stack of open bodies (13), and the builder itself should
// it escape to the heap. None of them grows with StaticCond; an array
// that outgrows its presized capacity adds one.
const maxBuildAllocs = 14

// maxGccBuildBytes bounds the bytes allocated to build gcc's program,
// the largest (12,086 sites).
const maxGccBuildBytes = 2 << 20

// TestProgramBuildFootprint holds every benchmark's program build to a
// fixed number of allocations and gcc's to maxGccBuildBytes. It skips
// under the race detector, whose bookkeeping makes the counts inexact.
func TestProgramBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	for _, prof := range Benchmarks() {
		allocs := testing.AllocsPerRun(3, func() { sinkProgram = buildProgram(prof) })
		if allocs > maxBuildAllocs {
			t.Errorf("%s: building the program made %.0f allocations, want at most %d", prof.Name, allocs, maxBuildAllocs)
		}
	}
	gcc, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if got := buildBytes(gcc); got > maxGccBuildBytes {
		t.Errorf("gcc: building the program allocated %d bytes, want at most %d", got, maxGccBuildBytes)
	}
}

// buildBytes returns the bytes allocated by one buildProgram call.
func buildBytes(prof Profile) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sinkProgram = buildProgram(prof)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// retainedBytes returns the heap a built program holds once the build's
// garbage is collected.
func retainedBytes(prof Profile) uint64 {
	sinkProgram = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sinkProgram = buildProgram(prof)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - before.HeapAlloc
}

// TestProgramArraysHoldNoPointers: every array of a program holds plain
// values (no pointer, slice, map, string or interface), so the collector
// never scans them.
func TestProgramArraysHoldNoPointers(t *testing.T) {
	prog := reflect.TypeOf(program{})
	for i := 0; i < prog.NumField(); i++ {
		f := prog.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		if hasPointers(f.Type.Elem()) {
			t.Errorf("program.%s: element type %v holds pointers", f.Name, f.Type.Elem())
		}
	}
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// BenchmarkNewProgram builds each benchmark's program. B/op and
// allocs/op are the build's allocations; retained-B is the heap the
// built program holds.
func BenchmarkNewProgram(b *testing.B) {
	for _, prof := range Benchmarks() {
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkProgram = buildProgram(prof)
			}
			b.StopTimer()
			b.ReportMetric(float64(retainedBytes(prof)), "retained-B")
		})
	}
}
