package elastic

import (
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// pairMatrix couples ranks (2i, 2i+1) heavily.
func pairMatrix(n int) []uint64 {
	mat := make([]uint64, n*n)
	for i := 0; i+1 < n; i += 2 {
		mat[i*n+i+1] = 1000
		mat[(i+1)*n+i] = 1000
	}
	return mat
}

func TestShrink(t *testing.T) {
	topo := topology.MustNew(3, 4)
	alive := Shrink(topo, 1)
	if len(alive) != 8 {
		t.Fatalf("%d cores after killing node 1, want 8", len(alive))
	}
	for _, c := range alive {
		if topo.NodeOf(c) == 1 {
			t.Fatalf("dead node's core %d survived", c)
		}
	}
	if got := Shrink(topo); len(got) != 12 {
		t.Fatal("no dead nodes should keep every core")
	}
}

func TestReconfigureAfterNodeFailure(t *testing.T) {
	topo := topology.MustNew(3, 4) // 12 cores
	n := 8
	// Packed on nodes 0 and 1.
	oldPlace := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Node 1 (cores 4..7) dies; nodes 0 and 2 survive.
	avail := Shrink(topo, 1)
	plan, err := ReconfigureView(matrixOf(t, pairMatrix(n), n), topo, oldPlace, avail, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r, c := range plan.Placement {
		if topo.NodeOf(c) == 1 {
			t.Fatalf("rank %d placed on the dead node", r)
		}
		if seen[c] {
			t.Fatalf("core %d assigned twice", c)
		}
		seen[c] = true
		_ = r
	}
	// The four ranks on the dead node must move; ideally nobody else.
	if len(plan.Moves) < 4 {
		t.Fatalf("only %d moves; the 4 ranks of the dead node must move", len(plan.Moves))
	}
	moved := map[int]bool{}
	for _, m := range plan.Moves {
		moved[m.Rank] = true
		if m.FromCore == m.ToCore {
			t.Fatalf("null move: %+v", m)
		}
	}
	for _, r := range []int{4, 5, 6, 7} {
		if !moved[r] {
			t.Fatalf("rank %d was on the dead node but did not move", r)
		}
	}
	// Pairs stay together on one node in the new placement.
	for i := 0; i+1 < n; i += 2 {
		if !topo.SameNode(plan.Placement[i], plan.Placement[i+1]) {
			t.Fatalf("pair (%d,%d) split: %v", i, i+1, plan.Placement)
		}
	}
	// Migration cost accounting: every cross-node move costs stateBytes.
	if plan.MigrationBytes != int64(plan.CrossNodeMoves)<<20 {
		t.Fatalf("migration bytes %d for %d cross-node moves", plan.MigrationBytes, plan.CrossNodeMoves)
	}
}

func TestReconfigureKeepsWellPlacedRanks(t *testing.T) {
	topo := topology.MustNew(2, 4)
	n := 8
	// Already optimally placed pairs, all cores still available: the
	// stabilization must keep everyone in place.
	oldPlace := []int{0, 1, 2, 3, 4, 5, 6, 7}
	avail := Shrink(topo)
	plan, err := ReconfigureView(matrixOf(t, pairMatrix(n), n), topo, oldPlace, avail, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrossNodeMoves != 0 {
		t.Fatalf("optimal placement triggered %d cross-node moves: %+v", plan.CrossNodeMoves, plan.Moves)
	}
	// Every pair must still be co-located, and the total cost must not
	// exceed the old placement's.
	m, _ := treematch.FromView(matrixOf(t, pairMatrix(n), n))
	if treematch.Cost(m, plan.Placement, topo) > treematch.Cost(m, oldPlace, topo) {
		t.Fatal("reconfiguration worsened the placement")
	}
}

func TestReconfigureGrowth(t *testing.T) {
	// A new node arrives: 8 ranks crammed on one node of a 2-node
	// machine spread out to use it.
	topo := topology.MustNew(2, 8)
	n := 8
	oldPlace := []int{0, 1, 2, 3, 4, 5, 6, 7} // all on node 0
	// Communication: two independent cliques of 4.
	mat := make([]uint64, n*n)
	for _, grp := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for _, a := range grp {
			for _, b := range grp {
				if a != b {
					mat[a*n+b] = 100
				}
			}
		}
	}
	avail := Shrink(topo) // both nodes, 16 cores for 8 ranks
	plan, err := ReconfigureView(matrixOf(t, mat, n), topo, oldPlace, avail, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		node := topo.NodeOf(plan.Placement[grp[0]])
		for _, r := range grp[1:] {
			if topo.NodeOf(plan.Placement[r]) != node {
				t.Fatalf("clique split after growth: %v", plan.Placement)
			}
		}
	}
	// No core may be assigned twice.
	seen := map[int]bool{}
	for _, c := range plan.Placement {
		if seen[c] {
			t.Fatalf("core %d double-assigned: %v", c, plan.Placement)
		}
		seen[c] = true
	}
}

func TestReconfigureValidation(t *testing.T) {
	topo := topology.MustNew(2, 2)
	if _, err := ReconfigureView(sparsemat.New(2), topo, []int{0}, []int{0, 1}, 0); err == nil {
		t.Fatal("short old placement should fail")
	}
	if _, err := ReconfigureView(sparsemat.New(2), topo, []int{0, 1}, []int{0}, 0); err == nil {
		t.Fatal("too few available cores should fail")
	}
	if _, err := ReconfigureView(&sparsemat.Matrix{N: 2, Rows: make([]sparsemat.Row, 1)}, topo, []int{0, 1}, []int{0, 1}, 0); err == nil {
		t.Fatal("malformed matrix should fail")
	}
}

func TestReconfigureSparseErrors(t *testing.T) {
	topo := topology.MustNew(2, 2)
	sm := sparsemat.New(2)
	if _, err := ReconfigureView(sm, topo, []int{0}, []int{0, 1}, 0); err == nil {
		t.Fatal("placement length mismatch accepted")
	}
	if _, err := ReconfigureView(sm, topo, []int{0, 1}, []int{0}, 0); err == nil {
		t.Fatal("too few available cores accepted")
	}
}

// matrixOf is the matrix of a row-major n-by-n bytes plane, with the bytes
// as counts.
func matrixOf(t *testing.T, bytes []uint64, n int) *sparsemat.Matrix {
	t.Helper()
	m, err := sparsemat.FromDense(bytes, bytes, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
