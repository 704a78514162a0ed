package exp

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileSetup interprets the shared -cpuprofile/-memprofile flags of
// cmd/mpimon and cmd/exp: a non-empty cpuPath starts CPU
// profiling into that file immediately; the returned stop function ends the
// CPU profile and, when memPath is non-empty, writes a GC-settled heap
// profile there. Call stop exactly once, after the measured work (typically
// via defer with the error checked). Both paths empty yields no-ops.
func ProfileSetup(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			runtime.GC() // settle allocations so the heap profile is of live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
