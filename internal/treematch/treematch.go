package treematch

import (
	"fmt"
	"math"

	"mpimon/internal/topology"
)

// MapTree places the m.N() processes of the affinity matrix onto the leaves
// of the topology tree, returning coreOf[process] = leaf id. The number of
// processes must equal the number of leaves; to place fewer processes than
// the machine has cores, first prune the topology with Topology.Restrict to
// the occupied cores.
//
// The algorithm is recursive top-down partitioning: at each inner node the
// processes are split into one part per child, sized by the child's leaf
// capacity, greedily maximizing intra-part affinity. It handles uneven
// (restricted) trees, which the classic bottom-up grouping does not.
// Sibling subtrees are mapped concurrently by a bounded worker pool; the
// result is deterministic regardless of scheduling (the dense partitioning
// kernel lives in partition.go).
func MapTree(m *Matrix, root *topology.Tree) ([]int, error) {
	if m.N() != root.Cap {
		return nil, fmt.Errorf("treematch: %d processes for a tree of %d leaves (restrict the topology first)", m.N(), root.Cap)
	}
	m.Finish()
	out := make([]int, m.N())
	procs := make([]int, m.N())
	for i := range procs {
		procs[i] = i
	}
	newMapper(m, out).run(root, procs)
	return out, nil
}

// treeNode is the tree type the partitioning kernel recurses over.
type treeNode = topology.Tree

// Cost evaluates a placement: the sum over communicating pairs of
// affinity times topology distance between their cores. Lower is better;
// it is the objective the paper's reordering minimizes.
func Cost(m *Matrix, coreOf []int, topo *topology.Topology) float64 {
	m.Finish()
	var s float64
	for i := 0; i < m.N(); i++ {
		for _, e := range m.Row(i) {
			if e.Col > i {
				s += e.W * float64(topo.Distance(coreOf[i], coreOf[e.Col]))
			}
		}
	}
	return s
}

// OptimalMap finds the provably optimal placement by exhaustive search —
// usable only for tiny instances (it explores n! permutations, capped at
// n = 10). It is the oracle the greedy algorithms are tested against.
func OptimalMap(m *Matrix, topo *topology.Topology) ([]int, float64, error) {
	n := m.N()
	if n > 10 {
		return nil, 0, fmt.Errorf("treematch: exhaustive search infeasible for %d processes (max 10)", n)
	}
	if n > topo.Leaves() {
		return nil, 0, fmt.Errorf("treematch: %d processes exceed %d leaves", n, topo.Leaves())
	}
	m.Finish()
	// Search over placements onto the first n... no: onto any subset of
	// leaves would explode; by symmetry of balanced trees, mapping onto
	// any distinct leaves is covered by permutations over all leaves when
	// n == leaves; for n < leaves, search assignments into all leaves
	// with backtracking.
	best := make([]int, n)
	cur := make([]int, n)
	used := make([]bool, topo.Leaves())
	bestCost := math.Inf(1)
	var rec func(i int, cost float64)
	rec = func(i int, cost float64) {
		if cost >= bestCost {
			return
		}
		if i == n {
			bestCost = cost
			copy(best, cur)
			return
		}
		for leaf := 0; leaf < topo.Leaves(); leaf++ {
			if used[leaf] {
				continue
			}
			add := 0.0
			for _, e := range m.Row(i) {
				if e.Col < i {
					add += e.W * float64(topo.Distance(leaf, cur[e.Col]))
				}
			}
			used[leaf] = true
			cur[i] = leaf
			rec(i+1, cost+add)
			used[leaf] = false
		}
	}
	rec(0, 0)
	return best, bestCost, nil
}
