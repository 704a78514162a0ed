// Package treematch implements the TreeMatch topology-aware process
// placement algorithm (Jeannot, Mercier, Tessier, IEEE TPDS 2014) used by
// the paper's rank-reordering optimization: given the affinity between
// processes (a communication matrix, typically the bytes matrix gathered by
// the monitoring library) and the tree topology of the machine, it computes
// a mapping of processes onto cores that keeps heavily-communicating
// processes close.
//
// MapTree is a top-down recursive partitioning that handles arbitrary
// (including pruned/uneven) topology trees. The package also ships
// the baseline placements the paper compares against (packed/"standard",
// round-robin, random) and a placement cost evaluator.
package treematch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Entry is one off-diagonal affinity of a sparse matrix row.
type Entry struct {
	Col int
	W   float64
}

// Matrix is a symmetric process-affinity matrix stored sparsely: rows[i]
// holds the nonzero affinities of process i, sorted by column. Build one
// with NewMatrix/Add/Finish or FromView.
type Matrix struct {
	n        int
	rows     [][]Entry
	finished bool
	// nonneg records that no entry is negative (true for byte-count
	// matrices); the refinement kernel uses it to skip part pairs with no
	// cut affinity, which is lossless only without negative weights.
	nonneg bool
}

// NewMatrix creates an empty n-process affinity matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, rows: make([][]Entry, n)}
}

// N returns the number of processes.
func (m *Matrix) N() int { return m.n }

// Add accumulates symmetric affinity w between processes i and j.
// Self-affinities (i == j) are ignored: they cannot influence placement.
func (m *Matrix) Add(i, j int, w float64) {
	if i == j || w == 0 {
		return
	}
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("treematch: affinity (%d,%d) out of range for %d processes", i, j, m.n))
	}
	m.rows[i] = append(m.rows[i], Entry{Col: j, W: w})
	m.rows[j] = append(m.rows[j], Entry{Col: i, W: w})
	m.finished = false
}

// Finish sorts and merges duplicate entries; Map* call it implicitly.
// Rows already in column order are left as they are, which is exactly what
// sorting them would do (sort.Slice leaves a sorted slice untouched), so
// duplicate entries always merge in the same order.
func (m *Matrix) Finish() {
	if m.finished {
		return
	}
	m.nonneg = true
	for i := range m.rows {
		r := m.rows[i]
		if !slices.IsSortedFunc(r, func(a, b Entry) int { return cmp.Compare(a.Col, b.Col) }) {
			sort.Slice(r, func(a, b int) bool { return r[a].Col < r[b].Col })
		}
		out := r[:0]
		for _, e := range r {
			if len(out) > 0 && out[len(out)-1].Col == e.Col {
				out[len(out)-1].W += e.W
			} else {
				out = append(out, e)
			}
		}
		for _, e := range out {
			if e.W < 0 {
				m.nonneg = false
				break
			}
		}
		m.rows[i] = out
	}
	m.finished = true
}

// Row returns the (finished) sparse row of process i. The slice is shared;
// callers must not modify it.
func (m *Matrix) Row(i int) []Entry {
	m.Finish()
	return m.rows[i]
}

// Affinity returns the symmetric affinity between i and j.
func (m *Matrix) Affinity(i, j int) float64 {
	m.Finish()
	r := m.rows[i]
	k := sort.Search(len(r), func(k int) bool { return r[k].Col >= j })
	if k < len(r) && r[k].Col == j {
		return r[k].W
	}
	return 0
}

// Degree returns the number of distinct peers of process i.
func (m *Matrix) Degree(i int) int {
	m.Finish()
	return len(m.rows[i])
}

// TotalWeight returns the sum of all symmetric affinities (each pair once).
func (m *Matrix) TotalWeight() float64 {
	m.Finish()
	var s float64
	for _, r := range m.rows {
		for _, e := range r {
			s += e.W
		}
	}
	return s / 2
}

// Dense returns the symmetric matrix densely (tests and small inputs only).
func (m *Matrix) Dense() [][]float64 {
	m.Finish()
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = make([]float64, m.n)
		for _, e := range m.rows[i] {
			out[i][e.Col] = e.W
		}
	}
	return out
}
