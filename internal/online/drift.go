// Package online closes the loop the paper leaves open: instead of
// monitoring one iteration and reordering once, a Controller keeps a
// sliding window of sparse monitoring deltas, measures how far the
// windowed communication matrix has drifted from the matrix the current
// placement was computed for, and re-reorders with a full TreeMatch only
// when the drift crosses a threshold AND the modelled gain (scaled by the network-utilization forecast of
// internal/predict) exceeds the modelled remap cost. Post-Shrink worlds
// plug in via Rebind, which restarts monitoring on the shrunken
// communicator and forces a re-optimization on the next window.
package online

import (
	"fmt"
	"math"

	"mpimon/internal/sparsemat"
)

// Drift measures how far the current communication matrix has diverged
// from a reference: the L1 distance between the two symmetric byte
// affinities (|a_ij − b_ij| summed over unordered pairs, each affinity
// being bytes both ways), normalized by the larger of the two total
// affinities. Identical matrices score 0; matrices with disjoint supports
// score up to 2 (1 when one side is empty). A nil reference scores 1
// against any non-empty current matrix — the "nothing was optimized yet"
// drift that forces the initial mapping.
func Drift(ref, cur *sparsemat.Matrix) (float64, error) {
	if ref != nil && cur != nil && ref.N != cur.N {
		return 0, fmt.Errorf("online: drift between orders %d and %d", ref.N, cur.N)
	}
	// Fold both symmetric affinities into one pair-keyed accumulator:
	// reference adds, current subtracts; what survives is the signed
	// per-pair difference.
	diff := make(map[uint64]float64)
	var totRef, totCur float64
	add := func(v *sparsemat.Matrix, sign float64, tot *float64) error {
		if v == nil {
			return nil
		}
		n := uint64(v.N)
		return v.VisitPairs(func(i, j int, bij, bji uint64) error {
			w := float64(bij) + float64(bji)
			if w == 0 {
				return nil
			}
			*tot += w
			key := uint64(i)*n + uint64(j)
			if d := diff[key] + sign*w; d != 0 {
				diff[key] = d
			} else {
				delete(diff, key)
			}
			return nil
		})
	}
	if err := add(ref, 1, &totRef); err != nil {
		return 0, err
	}
	if err := add(cur, -1, &totCur); err != nil {
		return 0, err
	}
	den := math.Max(totRef, totCur)
	if den == 0 {
		return 0, nil
	}
	var l1 float64
	for _, d := range diff {
		l1 += math.Abs(d)
	}
	return l1 / den, nil
}

// Drifted is the remap trigger: it reports whether the measured drift has
// reached the threshold. The boundary is inclusive — drift exactly at the
// threshold triggers — so a threshold of 0 remaps on every window and a
// threshold above 2 never does.
func Drifted(drift, threshold float64) bool {
	return drift >= threshold
}
