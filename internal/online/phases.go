package online

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
)

// PhaseMatrices folds a run's message spans into one sparse communication
// matrix per quiet-gap-separated phase (messagePhases), comparable with the
// matrices the live controller gathers. Spans of other kinds are ignored;
// n is the world size the spans are ranked in.
func PhaseMatrices(spans []telemetry.Span, n int, quiet time.Duration) ([]*sparsemat.Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("online: phase matrices for a world of %d", n)
	}
	var out []*sparsemat.Matrix
	for _, ph := range messagePhases(spans, quiet) {
		counts, bytes := make([]uint64, n*n), make([]uint64, n*n)
		for _, s := range ph {
			if s.Src < 0 || s.Src >= n || s.Dst < 0 || s.Dst >= n {
				return nil, fmt.Errorf("online: message %d->%d outside a world of %d", s.Src, s.Dst, n)
			}
			counts[s.Src*n+s.Dst]++
			bytes[s.Src*n+s.Dst] += uint64(s.Bytes)
		}
		m, err := sparsemat.FromDense(counts, bytes, n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// messagePhases returns the message spans among spans, stably ordered by
// Start and split wherever consecutive starts are at least quiet apart (the
// drift trigger's inclusive convention). A non-positive quiet gives one
// phase: every gap is "at least 0", so anything else would give one phase
// per message. The input is not modified.
func messagePhases(spans []telemetry.Span, quiet time.Duration) [][]telemetry.Span {
	var msgs []telemetry.Span
	for _, s := range spans {
		if s.Kind == telemetry.KindMessage {
			msgs = append(msgs, s)
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	slices.SortStableFunc(msgs, func(a, b telemetry.Span) int { return cmp.Compare(a.Start, b.Start) })
	var phases [][]telemetry.Span
	start := 0
	for i := 1; i < len(msgs); i++ {
		if quiet > 0 && time.Duration(msgs[i].Start-msgs[i-1].Start) >= quiet {
			phases = append(phases, msgs[start:i])
			start = i
		}
	}
	return append(phases, msgs[start:])
}

// PhaseDrifts measures the drift between each consecutive pair of phase
// matrices — the offline answer to "would the online controller have
// re-reordered here?". Returns len(ms)−1 drifts (nil for fewer than two
// phases); drifts[i] compares phase i (reference) with phase i+1.
func PhaseDrifts(ms []*sparsemat.Matrix) ([]float64, error) {
	if len(ms) < 2 {
		return nil, nil
	}
	out := make([]float64, len(ms)-1)
	for i := 1; i < len(ms); i++ {
		d, err := Drift(ms[i-1], ms[i])
		if err != nil {
			return nil, err
		}
		out[i-1] = d
	}
	return out, nil
}
