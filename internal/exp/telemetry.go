package exp

import (
	"io"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/stats"
	"mpimon/internal/telemetry"
)

// TelemetryOverheadConfig parameterizes the telemetry-overhead benchmark:
// like the Fig. 4 monitoring-overhead experiment it times a reduce over
// COMM_WORLD in wall-clock time, but the variable is the telemetry
// subsystem — absent (the disabled fast path of nil checks every world
// pays) versus attached (spans + metrics recorded on every message).
type TelemetryOverheadConfig struct {
	NP   int
	Size int // payload bytes
	Reps int
}

// DefaultTelemetryOverhead mirrors the Fig. 4 midpoint.
var DefaultTelemetryOverhead = TelemetryOverheadConfig{NP: 48, Size: 1024, Reps: 180}

// TelemetryOverheadResult carries the two Welch 95% intervals of the
// benchmark, in microseconds per reduce.
type TelemetryOverheadResult struct {
	// Disabled compares two independent batches that both run without a
	// telemetry hub — the null check on the disabled fast path. A
	// significant interval here means the fast path's cost (or the
	// machine's noise) is measurable, failing the "disabled = a few nil
	// checks" contract.
	Disabled stats.WelchResult
	// Enabled is the cost of attaching a hub: enabled minus disabled.
	Enabled stats.WelchResult
}

// TelemetryOverhead runs the benchmark: Reps timed reduces per batch, two
// batches without telemetry and one with a hub attached. An untimed
// warm-up world runs first and is discarded, so the null row compares two
// warm worlds rather than the process's cold first world with a warm one.
func TelemetryOverhead(cfg TelemetryOverheadConfig) (TelemetryOverheadResult, error) {
	if err := welchReps(cfg.Reps); err != nil {
		return TelemetryOverheadResult{}, err
	}
	if err := checkNPs("overhead -self", cfg.NP); err != nil {
		return TelemetryOverheadResult{}, err
	}
	if err := checkSizes("overhead -self sizes", []int{cfg.Size}); err != nil {
		return TelemetryOverheadResult{}, err
	}
	if _, err := timedReducesOpts(cfg.NP, cfg.Size, cfg.Reps); err != nil {
		return TelemetryOverheadResult{}, err
	}
	offA, err := timedReducesOpts(cfg.NP, cfg.Size, cfg.Reps)
	if err != nil {
		return TelemetryOverheadResult{}, err
	}
	offB, err := timedReducesOpts(cfg.NP, cfg.Size, cfg.Reps)
	if err != nil {
		return TelemetryOverheadResult{}, err
	}
	on, err := timedReducesOpts(cfg.NP, cfg.Size, cfg.Reps, mpi.WithTelemetry(telemetry.New()))
	if err != nil {
		return TelemetryOverheadResult{}, err
	}
	return TelemetryOverheadResult{
		Disabled: stats.Welch(offA, offB),
		Enabled:  stats.Welch(on, offB),
	}, nil
}

// timedReducesOpts measures the wall time of rep successive reduces on a
// fresh world of np ranks built with the given options, returning rank 0's
// per-iteration samples in microseconds.
func timedReducesOpts(np, size, reps int, opts ...mpi.Option) ([]float64, error) {
	w, err := PlaFRIMWorld(np, nil, opts...)
	if err != nil {
		return nil, err
	}
	samples := make([]float64, 0, reps)
	err = w.Run(func(c *mpi.Comm) error {
		send := make([]byte, size)
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, size)
		}
		for i := 0; i < reps; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := c.Reduce(send, recv, mpi.Byte, mpi.OpMax, 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				samples = append(samples, float64(time.Since(t0))/1e3)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// PrintTelemetryOverhead writes the benchmark result as a small table.
func PrintTelemetryOverhead(w io.Writer, cfg TelemetryOverheadConfig, r TelemetryOverheadResult) {
	Fprintf(w, "# telemetry overhead, np=%d size=%dB reps=%d (us per reduce, Welch 95%%)\n",
		cfg.NP, cfg.Size, cfg.Reps)
	Fprintf(w, "# mode\tdiff_us\tci_lo\tci_hi\tsignificant\n")
	Fprintf(w, "disabled\t%+.3f\t%+.3f\t%+.3f\t%v\n",
		r.Disabled.Diff, r.Disabled.Lo, r.Disabled.Hi, r.Disabled.Significant)
	Fprintf(w, "enabled\t%+.3f\t%+.3f\t%+.3f\t%v\n",
		r.Enabled.Diff, r.Enabled.Lo, r.Enabled.Hi, r.Enabled.Significant)
}
