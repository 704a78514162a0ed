package main

import (
	"fmt"

	"mpimon/internal/sparsemat"
)

// The output verifiers, one per kind of output a workload produces. Each
// returns nil only for exactly the expected output; a rejection fails the
// pass it belongs to.

// verifyStencil checks a gathered matrix against the analytic matrix of a
// non-periodic gx x gx halo skeleton after iters exchanges of msg bytes:
// 4·gx·(gx−1) entries, each between grid neighbours, each holding iters
// messages and iters·msg bytes.
func verifyStencil(sm *sparsemat.Matrix, gx int, iters, msg uint64) error {
	if sm == nil {
		return fmt.Errorf("no matrix")
	}
	if sm.N != gx*gx || len(sm.Rows) != sm.N {
		return fmt.Errorf("order %d with %d rows, want %d", sm.N, len(sm.Rows), gx*gx)
	}
	if want := 4 * gx * (gx - 1); sm.NNZ() != want {
		return fmt.Errorf("%d nonzeros, want %d", sm.NNZ(), want)
	}
	for i, row := range sm.Rows {
		if err := row.Validate(sm.N); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		nbs := gridNeighbours(i, gx)
		if len(row.Dst) != len(nbs) {
			return fmt.Errorf("row %d has %d entries, want %d", i, len(row.Dst), len(nbs))
		}
		for _, nb := range nbs {
			cnt, byt := sm.At(i, nb)
			if cnt != iters || byt != iters*msg {
				return fmt.Errorf("entry (%d,%d) holds %d messages / %d bytes, want %d / %d", i, nb, cnt, byt, iters, iters*msg)
			}
		}
	}
	return nil
}

// verifyExport checks what the daemon holds after epochs exported epochs of
// itersPerEpoch halo exchanges each: one row per rank per epoch ingested,
// and a cumulative matrix equal to the analytic sum.
func verifyExport(cum *sparsemat.Matrix, rowsIngested uint64, gx int, epochs, itersPerEpoch, msg uint64) error {
	if want := uint64(gx*gx) * epochs; rowsIngested != want {
		return fmt.Errorf("%d rows ingested, want %d", rowsIngested, want)
	}
	if err := verifyStencil(cum, gx, epochs*itersPerEpoch, msg); err != nil {
		return fmt.Errorf("cumulative matrix: %w", err)
	}
	return nil
}

// verifyPermutation checks that k holds every value of [0, len(k)) once.
func verifyPermutation(k []int) error {
	if len(k) == 0 {
		return fmt.Errorf("empty permutation")
	}
	seen := make([]bool, len(k))
	for i, v := range k {
		if v < 0 || v >= len(k) {
			return fmt.Errorf("entry %d is %d, outside [0,%d)", i, v, len(k))
		}
		if seen[v] {
			return fmt.Errorf("value %d appears twice", v)
		}
		seen[v] = true
	}
	return nil
}

// verifyPlacement checks a TreeMatch result: a valid permutation of the
// cores, identical to the first pass's, and no costlier than round-robin.
func verifyPlacement(coreOf, first []int, cost, rrCost float64) error {
	if err := verifyPermutation(coreOf); err != nil {
		return err
	}
	if len(first) != len(coreOf) {
		return fmt.Errorf("placement of %d processes, the first pass placed %d", len(coreOf), len(first))
	}
	for i := range coreOf {
		if coreOf[i] != first[i] {
			return fmt.Errorf("process %d placed on core %d, on core %d in the first pass", i, coreOf[i], first[i])
		}
	}
	if !(cost <= rrCost) {
		return fmt.Errorf("cost %g exceeds round-robin's %g", cost, rrCost)
	}
	return nil
}
