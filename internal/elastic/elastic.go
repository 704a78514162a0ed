// Package elastic plans application reconfigurations when the set of
// available compute resources changes — the use case the paper's
// discussion cites (Cores et al., VECPAR 2016): on node failures or node
// arrivals, the runtime migrates MPI processes, and "the placement of such
// processes was computed according to the topology and the communication
// matrix". Given the matrix gathered by the introspection monitoring
// library, the machine topology, the current placement and the cores that
// remain (or become) available, ReconfigureView returns a topology-aware new
// placement together with the migration schedule and its cost breakdown.
package elastic

import (
	"fmt"

	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// Move is one process migration.
type Move struct {
	Rank     int
	FromCore int
	ToCore   int
	// CrossNode reports whether the state must travel between nodes
	// (the expensive case).
	CrossNode bool
}

// Plan is the outcome of a reconfiguration computation.
type Plan struct {
	// Placement maps every rank to its new core (all within the
	// available set).
	Placement []int
	// Moves lists the ranks that change core; ranks keeping their core
	// do not appear.
	Moves []Move
	// CrossNodeMoves counts the moves crossing nodes.
	CrossNodeMoves int
	// MigrationBytes estimates the state volume crossing nodes, given
	// the per-rank state size passed to ReconfigureView.
	MigrationBytes int64
}

// ReconfigureView computes a new placement of the n = v.Order() ranks onto
// the avail cores using TreeMatch on the communication matrix, then
// minimizes disturbance: within every topology node, ranks that already
// sit on one of the node's newly assigned cores keep their core.
// stateBytes is each rank's migration payload for the cost estimate. Pass
// a gathered *sparsemat.Matrix directly or wrap a dense matrix with
// sparsemat.DenseView; the plan is identical either way.
func ReconfigureView(v sparsemat.MatrixView, topo *topology.Topology, oldPlace []int, avail []int, stateBytes int64) (Plan, error) {
	n := v.Order()
	if len(oldPlace) != n {
		return Plan{}, fmt.Errorf("elastic: old placement has %d entries for %d ranks", len(oldPlace), n)
	}
	if len(avail) < n {
		return Plan{}, fmt.Errorf("elastic: %d available cores for %d ranks", len(avail), n)
	}
	// Pad the matrix with zero-affinity dummies up to the available core
	// count, so TreeMatch is free to choose *which* of the available
	// cores the real ranks use (the dummies soak up the rest).
	padded, err := treematch.FromViewPadded(v, len(avail))
	if err != nil {
		return Plan{}, err
	}
	return planOn(padded, n, topo, oldPlace, avail, stateBytes)
}

// planOn runs TreeMatch on the (padded) affinity matrix and turns the
// placement into a disturbance-minimized migration plan.
func planOn(padded *treematch.Matrix, n int, topo *topology.Topology, oldPlace []int, avail []int, stateBytes int64) (Plan, error) {
	tree, err := topo.Restrict(avail)
	if err != nil {
		return Plan{}, err
	}
	coreAll, err := treematch.MapTree(padded, tree)
	if err != nil {
		return Plan{}, err
	}
	coreOf := coreAll[:n]

	// Disturbance minimization: TreeMatch decides which *node* each rank
	// goes to; the specific core within the node is interchangeable, so
	// ranks already on one of their node's assigned cores stay put.
	placement := stabilize(coreOf, oldPlace, topo)

	plan := Plan{Placement: placement}
	for r := 0; r < n; r++ {
		if placement[r] == oldPlace[r] {
			continue
		}
		mv := Move{
			Rank:      r,
			FromCore:  oldPlace[r],
			ToCore:    placement[r],
			CrossNode: !topo.SameNode(oldPlace[r], placement[r]),
		}
		plan.Moves = append(plan.Moves, mv)
		if mv.CrossNode {
			plan.CrossNodeMoves++
			plan.MigrationBytes += stateBytes
		}
	}
	return plan, nil
}

// stabilize permutes, within each topology node, the cores assigned to the
// ranks landing there so that ranks already on one of those cores keep it.
func stabilize(coreOf, oldPlace []int, topo *topology.Topology) []int {
	n := len(coreOf)
	placement := append([]int(nil), coreOf...)

	// Ranks grouped by destination node.
	byNode := make(map[int][]int)
	for r, c := range coreOf {
		byNode[topo.NodeOf(c)] = append(byNode[topo.NodeOf(c)], r)
	}
	for _, ranks := range byNode {
		// Cores the node received.
		cores := make(map[int]bool, len(ranks))
		for _, r := range ranks {
			cores[coreOf[r]] = true
		}
		// First pass: ranks whose old core is among the node's cores
		// claim it.
		taken := make(map[int]bool, len(cores))
		pending := ranks[:0:0]
		for _, r := range ranks {
			if cores[oldPlace[r]] && !taken[oldPlace[r]] {
				placement[r] = oldPlace[r]
				taken[oldPlace[r]] = true
			} else {
				pending = append(pending, r)
			}
		}
		// Second pass: the rest take the remaining cores in order.
		var free []int
		for _, r := range ranks {
			if !taken[coreOf[r]] {
				free = append(free, coreOf[r])
				taken[coreOf[r]] = true
			}
		}
		for i, r := range pending {
			placement[r] = free[i]
		}
	}
	_ = n
	return placement
}

// SurvivorCores lists the cores of the world's machine that remain usable
// after the failures the runtime has observed: every core except those on
// the nodes the fault plan killed. Call it after Comm.Shrink — the shrunken
// communicator's world knows which nodes are dead — to feed ReconfigureView
// the surviving resource set.
func SurvivorCores(c *mpi.Comm) []int {
	return Shrink(c.World().Machine().Topo, c.World().DeadNodes()...)
}

// Shrink lists the cores that survive removing the given nodes from the
// machine — a helper for the node-failure scenario.
func Shrink(topo *topology.Topology, deadNodes ...int) []int {
	dead := make(map[int]bool, len(deadNodes))
	for _, d := range deadNodes {
		dead[d] = true
	}
	var out []int
	for c := 0; c < topo.Leaves(); c++ {
		if !dead[topo.NodeOf(c)] {
			out = append(out, c)
		}
	}
	return out
}
