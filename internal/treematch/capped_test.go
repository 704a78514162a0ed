package treematch_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
	"mpimon/internal/workloads"
)

// placementHash is the first 8 bytes of SHA-256 over "%d," of every core.
func placementHash(coreOf []int) string {
	h := sha256.New()
	for _, c := range coreOf {
		fmt.Fprintf(h, "%d,", c)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
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

// TestCappedPlacementsPinned pins the exact placements of the capped
// refinement path (refineCapped and its per-pair swap search), which every
// Table 1 order from 8192 up takes. The hashes were recorded before the
// kernel's bound-pruned swap search, hole-sift heap and exact-size matrix
// build: a faster kernel must place every process on the same core.
func TestCappedPlacementsPinned(t *testing.T) {
	t.Run("clustered", func(t *testing.T) {
		for _, tc := range []struct {
			seed  int64
			order int
			want  string
		}{
			{7, 8192, "7a834251486ed88a"},
			{7, 16384, "cc47f00c6fd10116"},
			{1, 16384, "c6e7526343330eaa"},
		} {
			degrades, restore := countDegrades()
			m, err := treematch.FromView(upperView(workloads.ClusteredSparse(tc.order, 32, 1000, 1, tc.seed)))
			if err != nil {
				t.Fatal(err)
			}
			coreOf, err := treematch.MapTree(m, topology.MustNew(tc.order/32, 2, 16).FullTree())
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if degrades.Load() == 0 {
				t.Fatalf("seed %d order %d: mapping never took the capped path", tc.seed, tc.order)
			}
			if got := placementHash(coreOf); got != tc.want {
				t.Errorf("seed %d order %d: placement hash %s, want %s", tc.seed, tc.order, got, tc.want)
			}
		}
	})
	t.Run("budget", func(t *testing.T) {
		small, large := topology.MustNew(4, 2, 6).FullTree(), topology.MustNew(8, 2, 16).FullTree()
		for _, tc := range []struct {
			budget int
			want   string
		}{
			{64, "5020041760802556"},
			{1024, "ff1bb225a1ecc718"},
			{4096, "527cbe22bb4644bc"},
		} {
			restoreBudget := treematch.SetRefineBudget(tc.budget)
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
				t.Fatalf("budget %d: mapping never took the capped path", tc.budget)
			}
			if got := placementHash(all); got != tc.want {
				t.Errorf("budget %d: placement hash %s, want %s", tc.budget, got, tc.want)
			}
		}
	})
}
