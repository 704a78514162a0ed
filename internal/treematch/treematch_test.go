package treematch

import (
	"math"
	"testing"
	"testing/quick"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 5)
	m.Add(1, 0, 3) // accumulates symmetrically
	m.Add(2, 3, 7)
	m.Add(1, 1, 100) // diagonal ignored
	m.Finish()
	if got := m.Affinity(0, 1); got != 8 {
		t.Fatalf("Affinity(0,1) = %v, want 8", got)
	}
	if got := m.Affinity(1, 0); got != 8 {
		t.Fatalf("Affinity(1,0) = %v, want 8 (symmetry)", got)
	}
	if got := m.Affinity(0, 2); got != 0 {
		t.Fatalf("Affinity(0,2) = %v, want 0", got)
	}
	if got := m.Affinity(1, 1); got != 0 {
		t.Fatalf("diagonal = %v, want 0", got)
	}
	if got := m.TotalWeight(); got != 15 {
		t.Fatalf("TotalWeight = %v, want 15", got)
	}
	if got := m.Degree(1); got != 1 {
		t.Fatalf("Degree(1) = %d, want 1", got)
	}
}

func TestFromViewDense(t *testing.T) {
	// 2x2: 0 sends 10 to 1, 1 sends 30 to 0.
	m, err := FromView(sparsemat.DenseView([]uint64{0, 10, 30, 0}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Affinity(0, 1); got != 40 {
		t.Fatalf("affinity = %v, want 40", got)
	}
}

func TestDense(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 2, 4)
	d := m.Dense()
	if d[0][2] != 4 || d[2][0] != 4 || d[0][1] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

// twoClusters returns a matrix where {0,1} and {2,3} are tightly coupled
// pairs, with weak cross traffic.
func twoClusters() *Matrix {
	m := NewMatrix(4)
	m.Add(0, 1, 100)
	m.Add(2, 3, 100)
	m.Add(0, 2, 1)
	m.Finish()
	return m
}

func TestMapTreeColocatesClusters(t *testing.T) {
	topo := topology.MustNew(2, 2) // 2 nodes of 2 cores
	m := twoClusters()
	coreOf, err := MapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	if !topo.SameNode(coreOf[0], coreOf[1]) {
		t.Fatalf("pair (0,1) split across nodes: %v", coreOf)
	}
	if !topo.SameNode(coreOf[2], coreOf[3]) {
		t.Fatalf("pair (2,3) split across nodes: %v", coreOf)
	}
	if topo.SameNode(coreOf[0], coreOf[2]) {
		t.Fatalf("both pairs on one node: %v", coreOf)
	}
}

func TestMapTreeIsPermutation(t *testing.T) {
	topo := topology.MustNew(2, 2, 2)
	f := func(seed int64) bool {
		m := NewMatrix(8)
		rng := newRand(seed)
		for e := 0; e < 12; e++ {
			i, j := rng.next()%8, rng.next()%8
			if i != j {
				m.Add(int(i), int(j), float64(rng.next()%100+1))
			}
		}
		m.Finish()
		coreOf, err := MapTree(m, topo.FullTree())
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range coreOf {
			if c < 0 || c >= 8 || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newRand is a tiny deterministic generator for property tests.
type miniRand struct{ s uint64 }

func newRand(seed int64) *miniRand {
	return &miniRand{s: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *miniRand) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func TestMapTreeSizeMismatch(t *testing.T) {
	topo := topology.MustNew(2, 2)
	m := NewMatrix(3)
	if _, err := MapTree(m, topo.FullTree()); err == nil {
		t.Fatal("process/leaf count mismatch should fail")
	}
}

func TestMapTreeOnRestrictedTree(t *testing.T) {
	// 3 nodes x 4 cores; only 8 specific cores available. Two 4-process
	// clusters must land on the nodes owning 4 free cores each.
	topo := topology.MustNew(3, 4)
	occupied := []int{0, 1, 2, 3, 8, 9, 10, 11} // nodes 0 and 2
	tree, err := topo.Restrict(occupied)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(8)
	for _, grp := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				m.Add(grp[a], grp[b], 50)
			}
		}
	}
	m.Add(0, 4, 1)
	m.Finish()
	coreOf, err := MapTree(m, tree)
	if err != nil {
		t.Fatal(err)
	}
	for p, c := range coreOf {
		found := false
		for _, o := range occupied {
			if c == o {
				found = true
			}
		}
		if !found {
			t.Fatalf("process %d placed on unavailable core %d", p, c)
		}
	}
	n0 := topo.NodeOf(coreOf[0])
	for p := 1; p < 4; p++ {
		if topo.NodeOf(coreOf[p]) != n0 {
			t.Fatalf("cluster 1 split: %v", coreOf)
		}
	}
	n4 := topo.NodeOf(coreOf[4])
	for p := 5; p < 8; p++ {
		if topo.NodeOf(coreOf[p]) != n4 {
			t.Fatalf("cluster 2 split: %v", coreOf)
		}
	}
	if n0 == n4 {
		t.Fatalf("both clusters on node %d", n0)
	}
}

// bruteForceCost finds the optimal placement cost by trying all
// permutations (tiny instances only).
func bruteForceCost(m *Matrix, topo *topology.Topology) float64 {
	n := m.N()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if c := Cost(m, perm, topo); c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestGreedyNearOptimalOnSmallInstances(t *testing.T) {
	topo := topology.MustNew(2, 2)
	for seed := int64(1); seed <= 10; seed++ {
		m := NewMatrix(4)
		rng := newRand(seed)
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				m.Add(i, j, float64(rng.next()%50))
			}
		}
		m.Finish()
		coreOf, err := MapTree(m, topo.FullTree())
		if err != nil {
			t.Fatal(err)
		}
		got := Cost(m, coreOf, topo)
		opt := bruteForceCost(m, topo)
		if got > opt*1.25+1e-9 {
			t.Errorf("seed %d: greedy cost %v, optimal %v (off by more than 25%%)", seed, got, opt)
		}
	}
}

func TestCostOrdering(t *testing.T) {
	topo := topology.MustNew(2, 2)
	m := twoClusters()
	good := []int{0, 1, 2, 3} // pairs co-located
	bad := []int{0, 2, 1, 3}  // pairs split
	if Cost(m, good, topo) >= Cost(m, bad, topo) {
		t.Fatalf("cost does not order placements: good %v vs bad %v",
			Cost(m, good, topo), Cost(m, bad, topo))
	}
}

func TestPlacements(t *testing.T) {
	topo := topology.MustNew(4, 6) // 4 nodes x 6 cores
	packed := PlacementPacked(10)
	for i, c := range packed {
		if c != i {
			t.Fatalf("packed[%d] = %d", i, c)
		}
	}
	rr, err := PlacementRoundRobin(8, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0..3 on nodes 0..3, ranks 4..7 again on nodes 0..3.
	for i, c := range rr {
		if topo.NodeOf(c) != i%4 {
			t.Fatalf("rr[%d] on node %d, want %d", i, topo.NodeOf(c), i%4)
		}
	}
	if _, err := PlacementRoundRobin(25, topo); err == nil {
		t.Fatal("rr with too many ranks should fail")
	}
	rnd, err := PlacementRandom(10, topo, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range rnd {
		if c < 0 || c >= 12 || seen[c] { // 10 ranks need 2 nodes = 12 cores
			t.Fatalf("random placement invalid: %v", rnd)
		}
		seen[c] = true
	}
	rnd2, _ := PlacementRandom(10, topo, 42)
	for i := range rnd {
		if rnd[i] != rnd2[i] {
			t.Fatal("random placement not deterministic for a fixed seed")
		}
	}
	if _, err := PlacementRandom(99, topo, 1); err == nil {
		t.Fatal("random with too many ranks should fail")
	}
}

func TestMapTreeReducesCostVersusBaselines(t *testing.T) {
	// Clustered traffic on a 4x6 machine: TreeMatch must beat round-robin.
	topo := topology.MustNew(4, 6)
	m := NewMatrix(24)
	for c := 0; c < 4; c++ {
		for a := 0; a < 6; a++ {
			for b := a + 1; b < 6; b++ {
				m.Add(6*c+a, 6*c+b, 100)
			}
		}
	}
	m.Finish()
	tm, err := MapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	rr, err := PlacementRoundRobin(24, topo)
	if err != nil {
		t.Fatal(err)
	}
	ctm, crr := Cost(m, tm, topo), Cost(m, rr, topo)
	if ctm >= crr {
		t.Fatalf("TreeMatch cost %v not better than round-robin %v", ctm, crr)
	}
	// For this block-diagonal matrix the packed placement is optimal
	// (every cluster on one node); TreeMatch must match it exactly.
	if cpacked := Cost(m, PlacementPacked(24), topo); ctm != cpacked {
		t.Fatalf("TreeMatch cost %v, want the packed optimum %v", ctm, cpacked)
	}
}

func TestMapTreeHierarchicalOnMultiSwitch(t *testing.T) {
	// Two 8-process communities, each made of two tightly-coupled
	// 4-process teams: TreeMatch must put each community under one
	// switch and each team on one node.
	topo, err := topology.NewWithNodeDepth(2, 2, 2, 4) // 2 switches x 2 nodes x 4 cores
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(16)
	for team := 0; team < 4; team++ {
		base := team * 4
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				m.Add(base+a, base+b, 100)
			}
		}
	}
	// Communities: teams (0,1) and (2,3) exchange moderately.
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for a := 0; a < 4; a++ {
			m.Add(pair[0]*4+a, pair[1]*4+a, 10)
		}
	}
	m.Finish()
	coreOf, err := MapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	for team := 0; team < 4; team++ {
		node := topo.NodeOf(coreOf[team*4])
		for i := 1; i < 4; i++ {
			if topo.NodeOf(coreOf[team*4+i]) != node {
				t.Fatalf("team %d split across nodes: %v", team, coreOf)
			}
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		sa := topo.AncestorAt(coreOf[pair[0]*4], 1)
		sb := topo.AncestorAt(coreOf[pair[1]*4], 1)
		if sa != sb {
			t.Fatalf("community (%d,%d) split across switches: %v", pair[0], pair[1], coreOf)
		}
	}
}

func TestOptimalMapOracle(t *testing.T) {
	topo := topology.MustNew(2, 2, 2)
	for seed := int64(1); seed <= 6; seed++ {
		m := NewMatrix(8)
		rng := newRand(seed)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				if rng.next()%3 == 0 {
					m.Add(i, j, float64(rng.next()%40+1))
				}
			}
		}
		m.Finish()
		opt, optCost, err := OptimalMap(m, topo)
		if err != nil {
			t.Fatal(err)
		}
		if got := Cost(m, opt, topo); got != optCost {
			t.Fatalf("oracle cost mismatch: %v vs %v", got, optCost)
		}
		greedy, err := MapTree(m, topo.FullTree())
		if err != nil {
			t.Fatal(err)
		}
		gc := Cost(m, greedy, topo)
		if gc < optCost-1e-9 {
			t.Fatalf("greedy (%v) beat the proven optimum (%v)?!", gc, optCost)
		}
		if gc > optCost*1.5+1e-9 {
			t.Errorf("seed %d: greedy %v vs optimal %v (worse than 1.5x)", seed, gc, optCost)
		}
	}
}

func TestOptimalMapLimits(t *testing.T) {
	if _, _, err := OptimalMap(NewMatrix(11), topology.MustNew(16)); err == nil {
		t.Fatal("n > 10 should be rejected")
	}
	if _, _, err := OptimalMap(NewMatrix(4), topology.MustNew(2)); err == nil {
		t.Fatal("more processes than leaves should be rejected")
	}
}
