package treematch_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
	"mpimon/internal/workloads"
)

// placementBlocks is coreOf as golden blocks of 1024 "process:core" records.
func placementBlocks(coreOf []int) string {
	recs := make([]string, len(coreOf))
	for p, c := range coreOf {
		recs[p] = fmt.Sprintf("%d:%d", p, c)
	}
	return golden.Blocks(recs, 1024)
}

// upperView turns a symmetric affinity matrix into the sparse bytes matrix
// whose pairwise sums are those affinities, each pair's weight travelling in
// the lower-to-higher direction: the gathered matrix the treematch-map
// benchmark hands to FromView.
func upperView(m *treematch.Matrix) *sparsemat.Matrix {
	sm := sparsemat.New(m.N())
	for i := 0; i < m.N(); i++ {
		var row sparsemat.Row
		for _, e := range m.Row(i) {
			if e.Col > i {
				row.Dst = append(row.Dst, int32(e.Col))
				row.Cnt = append(row.Cnt, 1)
				row.Byt = append(row.Byt, uint64(e.W))
			}
		}
		sm.Rows[i] = row
	}
	return sm
}

// countDegrades counts OnRefineDegrade events until the returned function
// restores the previous hook.
func countDegrades() (*atomic.Int64, func()) {
	var n atomic.Int64
	prev := treematch.OnRefineDegrade
	treematch.OnRefineDegrade = func(treematch.RefineDegrade) { n.Add(1) }
	return &n, func() { treematch.OnRefineDegrade = prev }
}

// mapClustered maps a clustered matrix of the given order, in clusters of
// cluster processes, onto nodes of 32 cores, and fails the test unless the
// mapping took the capped path.
func mapClustered(t *testing.T, seed int64, order, cluster int) []int {
	t.Helper()
	degrades, restore := countDegrades()
	defer restore()
	m, err := treematch.FromView(upperView(workloads.ClusteredSparse(order, cluster, 1000, 1, seed)))
	if err != nil {
		t.Fatal(err)
	}
	coreOf, err := treematch.MapTree(m, topology.MustNew(order/32, 2, 16).FullTree())
	if err != nil {
		t.Fatal(err)
	}
	if degrades.Load() == 0 {
		t.Fatalf("seed %d order %d: mapping never took the capped path", seed, order)
	}
	return coreOf
}

// TestCappedPlacementsPinned pins the exact placements of the capped
// refinement path (refineCapped and its per-pair swap search), which every
// Table 1 order from 8192 up takes, in testdata/golden/TestCappedPlacementsPinned/.
// They match the placements recorded before the kernel's bound-pruned swap
// search, hole-sift heap and exact-size matrix build: a faster kernel must
// place every process on the same core. Clusters of 32 fill a node each,
// so their placements need few swaps; clusters of 48 straddle two nodes,
// and their placement changes when a part pair's swap is not applied.
func TestCappedPlacementsPinned(t *testing.T) {
	t.Run("clustered", func(t *testing.T) {
		var text strings.Builder
		for _, tc := range []struct {
			seed  int64
			order int
		}{{7, 8192}, {7, 16384}, {1, 16384}} {
			coreOf := mapClustered(t, tc.seed, tc.order, 32)
			fmt.Fprintf(&text, "case seed=%d order=%d\n%s", tc.seed, tc.order, placementBlocks(coreOf))
		}
		golden.Check(t, text.String())
	})
	t.Run("straddling", func(t *testing.T) {
		const seed, order, cluster = 7, 8192, 48
		coreOf := mapClustered(t, seed, order, cluster)
		golden.Check(t, fmt.Sprintf("case seed=%d order=%d cluster=%d\n%s", seed, order, cluster, placementBlocks(coreOf)))
	})
	t.Run("budget", func(t *testing.T) {
		var text strings.Builder
		small, large := topology.MustNew(4, 2, 6).FullTree(), topology.MustNew(8, 2, 16).FullTree()
		for _, budget := range []int{64, 1024, 4096} {
			restoreBudget := treematch.SetRefineBudget(budget)
			degrades, restore := countDegrades()
			var all []int
			for seed := int64(1); seed <= 3; seed++ {
				for _, in := range []struct {
					m    *treematch.Matrix
					tree *topology.Tree
				}{
					{treematch.RandSparse(48, 4, seed), small},
					{treematch.RandSparse(256, 6, seed), large},
					// Real-valued weights in (0, 4]: near-tied swap gains,
					// which an inexact search bound would decide differently.
					{workloads.RandomSparse(256, 6, 4, seed), large},
				} {
					coreOf, err := treematch.MapTree(in.m, in.tree)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, coreOf...)
				}
			}
			restore()
			restoreBudget()
			if degrades.Load() == 0 {
				t.Fatalf("budget %d: mapping never took the capped path", budget)
			}
			fmt.Fprintf(&text, "case budget=%d\n%s", budget, placementBlocks(all))
		}
		golden.Check(t, text.String())
	})
}

// TestMapTreeAllocs pins MapTree's allocations on the treematch-map inputs:
// a fixed number per call (the output, the worker pool, one workspace per
// worker, and the capped pass's pair and slack arrays), plus the
// logarithmic growth of the workspace's reused buffers. Nothing is
// allocated per tree node, part or part pair. Order 16384 has 1537 inner
// nodes and 32768 twice that, and both take the capped pass at the root.
func TestMapTreeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances")
	}
	allocs := map[int]float64{}
	for _, order := range []int{16384, 32768} {
		m, err := treematch.FromView(upperView(workloads.ClusteredSparse(order, 32, 1000, 1, 1)))
		if err != nil {
			t.Fatal(err)
		}
		tree := topology.MustNew(order/32, 2, 16).FullTree()
		allocs[order] = testing.AllocsPerRun(2, func() {
			if _, err := treematch.MapTree(m, tree); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("order %d: %v allocations", order, allocs[order])
	}
	// 32 at both orders when this was written; the kernel it replaced made
	// 38 140 at 16384. The slack covers other Go releases' slice growth.
	const bound = 48
	if allocs[16384] > bound || allocs[32768] > bound {
		t.Errorf("MapTree allocates %v times at order 16384 and %v at 32768, want at most %d", allocs[16384], allocs[32768], bound)
	}
	if allocs[32768] > allocs[16384]+4 {
		t.Errorf("MapTree allocations grow with the order: %v at 16384, %v at 32768", allocs[16384], allocs[32768])
	}
}
