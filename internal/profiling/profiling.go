// Package profiling is the one implementation of the CLIs'
// -cpuprofile/-memprofile flags: register them on a FlagSet, Start after
// parsing, and call the returned stop function when the run ends. The
// profiles are for go tool pprof.
package profiling

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the parsed profile paths.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)"),
		mem: fs.String("memprofile", "", "write an allocation profile to this file at exit"),
	}
}

// Start creates the requested profile files, so an unwritable path fails
// before any work, and starts the CPU profile. stop ends the CPU profile
// and writes the allocation profile; a failure there is reported to errw
// under the tool's name, because the run's own result has already been
// produced by then.
func (f *Flags) Start(tool string, errw io.Writer) (stop func(), err error) {
	var cpuFile, memFile *os.File
	if *f.cpu != "" {
		if cpuFile, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *f.mem != "" {
		if memFile, err = os.Create(*f.mem); err != nil {
			closeAll(cpuFile)
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			closeAll(cpuFile, memFile)
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	report := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(errw, "%s: %s: %v\n", tool, what, err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			report("closing cpu profile", cpuFile.Close())
		}
		if memFile != nil {
			runtime.GC() // flush the final allocation statistics
			report("memprofile", pprof.Lookup("allocs").WriteTo(memFile, 0))
			report("closing memprofile", memFile.Close())
		}
	}, nil
}

func closeAll(files ...*os.File) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}
