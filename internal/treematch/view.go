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
func FromViewPadded(v sparsemat.MatrixView, total int) (*Matrix, error) {
	if total < v.Order() {
		return nil, fmt.Errorf("treematch: padding %d processes down to %d", v.Order(), total)
	}
	m := NewMatrix(total)
	err := v.VisitPairs(func(i, j int, bij, bji uint64) error {
		if w := float64(bij) + float64(bji); w > 0 {
			m.Add(i, j, w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.Finish()
	return m, nil
}
