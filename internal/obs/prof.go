package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileFlags registers the -cpuprofile, -memprofile and -exectrace
// flags on fs, so that every command-line tool declares and runs them
// alike. Once fs is parsed, start turns on the profilers the flags name
// (startProfiling). The stop it returns flushes them and reports a
// failure on stderr as "<cmd>: profiling: <err>".
func ProfileFlags(fs *flag.FlagSet, cmd string) (start func() (stop func(), err error)) {
	cpuPath := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memPath := fs.String("memprofile", "", "write a heap profile to this file")
	tracePath := fs.String("exectrace", "", "write a Go execution trace to this file")
	return func() (func(), error) {
		stop, err := startProfiling(*cpuPath, *memPath, *tracePath)
		if err != nil {
			return nil, err
		}
		return func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: profiling: %v\n", cmd, err)
			}
		}, nil
	}
}

// startProfiling turns on whichever of the three Go profilers the caller
// named (empty path = off) and returns a stop function that flushes and
// closes them.
//
// The CPU profile and execution trace run from this call until stop; the
// heap profile is written at stop time (after a GC, so it reflects live
// memory, not transient garbage).
func startProfiling(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("obs: execution trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("obs: execution trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}
