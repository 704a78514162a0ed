package treematch

import (
	"fmt"

	"mpimon/internal/sparsemat"
)

// FromView builds the affinity matrix of a gathered communication matrix
// in O(nnz). The affinity of an unordered pair is float64(i→j bytes) +
// float64(j→i bytes), added when positive, the lower-index direction
// first (Matrix.VisitPairs); Finish sorts the result.
func FromView(v *sparsemat.Matrix) (*Matrix, error) {
	return FromViewPadded(v, v.N)
}

// FromViewPadded is FromView over a matrix of total ≥ v.N processes,
// the extras having no affinity — the zero-padding elastic reconfiguration
// uses to let TreeMatch pick which cores the real ranks occupy.
//
// The rows are built in two passes over the pairs: the first counts each
// process's peers, the second fills exact-size rows cut from one backing
// array, so the build allocates a constant number of times whatever the
// order. VisitPairs emits every unordered pair once, so no row holds a
// duplicate column and Finish only has to sort.
func FromViewPadded(v *sparsemat.Matrix, total int) (*Matrix, error) {
	if total < v.N {
		return nil, fmt.Errorf("treematch: padding %d processes down to %d", v.N, total)
	}
	deg := make([]int, total)
	err := v.VisitPairs(func(i, j int, bij, bji uint64) error {
		if float64(bij)+float64(bji) > 0 {
			deg[i]++
			deg[j]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nnz := 0
	for _, d := range deg {
		nnz += d
	}
	m := NewMatrix(total)
	backing := make([]Entry, nnz)
	for i, d := range deg {
		m.rows[i], backing = backing[:0:d], backing[d:]
	}
	err = v.VisitPairs(func(i, j int, bij, bji uint64) error {
		if w := float64(bij) + float64(bji); w > 0 {
			m.rows[i] = append(m.rows[i], Entry{Col: j, W: w})
			m.rows[j] = append(m.rows[j], Entry{Col: i, W: w})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.Finish()
	return m, nil
}
