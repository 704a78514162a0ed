package treematch

import (
	"fmt"

	"mpimon/internal/sparsemat"
)

// FromView builds the affinity matrix of a gathered communication matrix
// in O(n + nnz). The affinity of an unordered pair {i, j}, i < j, is
// float64(i→j bytes) + float64(j→i bytes), the lower-index direction first
// as Matrix.VisitPairs passes them, kept when positive.
func FromView(v *sparsemat.Matrix) (*Matrix, error) {
	return FromViewPadded(v, v.N)
}

// FromViewPadded is FromView over a matrix of total ≥ v.N processes,
// the extras having no affinity — the zero-padding elastic reconfiguration
// uses to let TreeMatch pick which cores the real ranks occupy.
//
// It takes the pairs in (i, j) order: the partners j > i of process i are
// row i's entries above the diagonal merged with column i's entries below
// it, and those come from a transpose of the strictly lower triangle. Only
// entries with bytes are transposed, so a view whose pairs all travel
// upwards, as the treematch-map inputs do, transposes nothing. Appending
// each pair to both of its rows in that order leaves every row in
// ascending column order with no duplicate, and every affinity positive,
// so the matrix is built finished. Two such merges first count each
// process's partners and then fill exact-size rows cut from one backing
// array, so the build allocates a constant number of times whatever the
// order.
func FromViewPadded(v *sparsemat.Matrix, total int) (*Matrix, error) {
	if total < v.N {
		return nil, fmt.Errorf("treematch: padding %d processes down to %d", v.N, total)
	}
	n := v.N
	// lo[lo0[i]:lo0[i+1]] are the processes j > i sending bytes to i, in
	// ascending order, each with float64 of those bytes. VisitRows
	// validates the view.
	lo0 := make([]int, n+2)
	err := v.VisitRows(func(j, i int, _ uint64) error {
		if i < j {
			lo0[i+2]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 2; i < len(lo0); i++ {
		lo0[i] += lo0[i-1]
	}
	lo := make([]Entry, lo0[n+1])
	for j := range v.Rows {
		r := v.Rows[j]
		for k, d := range r.Dst {
			i := int(d)
			if i >= j {
				break
			}
			if r.Byt[k] != 0 {
				lo[lo0[i+1]] = Entry{Col: j, W: float64(r.Byt[k])}
				lo0[i+1]++
			}
		}
	}

	deg := make([]int, total)
	m := NewMatrix(total)
	for fill := range 2 {
		for i := range v.Rows {
			r := v.Rows[i]
			k := 0
			for k < len(r.Dst) && int(r.Dst[k]) <= i {
				k++
			}
			low := lo[lo0[i]:lo0[i+1]]
			for k < len(r.Dst) || len(low) > 0 {
				// The next partner j > i and the affinity float64(i→j
				// bytes) + float64(j→i bytes).
				var j int
				var wij, wji float64
				switch {
				case len(low) == 0 || k < len(r.Dst) && int(r.Dst[k]) < low[0].Col:
					j, wij = int(r.Dst[k]), float64(r.Byt[k])
					k++
				case k == len(r.Dst) || low[0].Col < int(r.Dst[k]):
					j, wji = low[0].Col, low[0].W
					low = low[1:]
				default:
					j, wij, wji = int(r.Dst[k]), float64(r.Byt[k]), low[0].W
					k++
					low = low[1:]
				}
				w := wij + wji
				if w == 0 {
					continue // an entry carrying counts only
				}
				if fill == 0 {
					deg[i]++
					deg[j]++
				} else {
					m.rows[i] = append(m.rows[i], Entry{Col: j, W: w})
					m.rows[j] = append(m.rows[j], Entry{Col: i, W: w})
				}
			}
		}
		if fill == 0 {
			nnz := 0
			for _, d := range deg {
				nnz += d
			}
			backing := make([]Entry, nnz)
			for i, d := range deg {
				m.rows[i], backing = backing[:0:d], backing[d:]
			}
		}
	}
	m.finished, m.nonneg = true, true
	return m, nil
}
