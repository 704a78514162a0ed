package sparsemat

import "fmt"

// VisitRows calls fn for every directed entry (i, j) carrying a nonzero
// byte count, row by row, destinations ascending within a row: O(nnz). It
// stops at, and returns, fn's first error, and reports a malformed matrix
// before the first call.
func (m *Matrix) VisitRows(fn func(i, j int, bytes uint64) error) error {
	if err := m.checkRows(); err != nil {
		return err
	}
	for i := range m.Rows {
		r := m.Rows[i]
		for k, d := range r.Dst {
			if r.Byt[k] == 0 {
				continue
			}
			if err := fn(i, int(d), r.Byt[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// VisitPairs calls fn exactly once per unordered pair {i, j}, always with
// i < j, for which either direction has an entry, passing the directed
// byte counts both ways (bij = i→j, bji = j→i; a pair whose entries carry
// only counts surfaces with both zero). A pair is emitted from row i's
// entry when j > i, and from the mirror entry only when row j claims no
// entry for i at all (an entry with zero bytes still claims the pair), so
// the pairs come in row order of the entry that emits them. Consumers that
// fold the affinity as float64(bij) + float64(bji) therefore add the
// lower-index direction first. It stops at, and returns, fn's first error,
// and reports a malformed matrix before the first call.
//
// It runs in O(n + nnz). Row j is asked about i (for its bytes to i when
// i < j, for whether it claims i when i > j) only while row i is visited,
// and rows are visited in ascending order, so every row is asked about
// ascending ranks: one forward cursor per row, which only ever passes each
// entry once, answers every lookup.
func (m *Matrix) VisitPairs(fn func(i, j int, bij, bji uint64) error) error {
	if err := m.checkRows(); err != nil {
		return err
	}
	// cur[j] is the first entry of row j whose destination is not below
	// the last row that asked row j about itself.
	cur := make([]int32, m.N)
	for i := range m.Rows {
		r := m.Rows[i]
		for k, d := range r.Dst {
			j := int(d)
			if j == i {
				continue
			}
			rj := m.Rows[j]
			c := int(cur[j])
			for c < len(rj.Dst) && int(rj.Dst[c]) < i {
				c++
			}
			cur[j] = int32(c)
			claimed := c < len(rj.Dst) && int(rj.Dst[c]) == i
			if j > i {
				var bji uint64
				if claimed {
					bji = rj.Byt[c]
				}
				if err := fn(i, j, r.Byt[k], bji); err != nil {
					return err
				}
				continue
			}
			// j < i: the pair was emitted by row j's pass above unless
			// row j has no entry for i at all.
			if !claimed {
				if err := fn(j, i, 0, r.Byt[k]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (m *Matrix) checkRows() error {
	if len(m.Rows) != m.N {
		return fmt.Errorf("sparsemat: matrix has %d rows for size %d", len(m.Rows), m.N)
	}
	for i := range m.Rows {
		if err := m.Rows[i].Validate(m.N); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes sums every directed byte entry of the matrix (diagonal
// included) — the per-window traffic volume the online controller feeds to
// the utilization predictor.
func TotalBytes(m *Matrix) (uint64, error) {
	var s uint64
	err := m.VisitRows(func(_, _ int, b uint64) error {
		s += b
		return nil
	})
	return s, err
}
