package treematch

import (
	"fmt"

	"mpimon/internal/sparsemat"
)

// FromView builds the affinity matrix from any communication-matrix view:
// a gathered *sparsemat.Matrix, or a row-major dense bytes matrix wrapped
// with sparsemat.DenseView. The affinity of an unordered pair is
// float64(i→j bytes) + float64(j→i bytes), added when positive; because
// the view emits the lower-index direction first and Finish sorts the
// result, both representations of one matrix give a bit-identical result.
// O(nnz) for sparse views, O(n²) for dense ones.
func FromView(v sparsemat.MatrixView) (*Matrix, error) {
	return FromViewPadded(v, v.Order())
}

// FromViewPadded is FromView over a matrix of total ≥ v.Order() processes,
// the extras having no affinity — the zero-padding elastic reconfiguration
// uses to let TreeMatch pick which cores the real ranks occupy.
//
// The rows are built in two passes over the view: the first counts each
// process's peers, the second fills exact-size rows cut from one backing
// array, so the build allocates a constant number of times whatever the
// order. The view emits every unordered pair once, so no row holds a
// duplicate column and Finish only has to sort.
func FromViewPadded(v sparsemat.MatrixView, total int) (*Matrix, error) {
	if total < v.Order() {
		return nil, fmt.Errorf("treematch: padding %d processes down to %d", v.Order(), total)
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
