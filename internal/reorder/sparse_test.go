package reorder

import (
	"math/rand"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// TestComputeMappingSparseMatchesDense pins that the sparse matrix Reorder
// feeds from RootgatherSparse gives exactly the new-rank permutation of
// DenseView over its densified bytes plane.
func TestComputeMappingSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n, trials int
		topo      *topology.Topology
	}{
		{4, 10, topology.MustNew(2, 2)},
		{8, 10, topology.MustNew(2, 2, 2)},
		{256, 2, topology.MustNew(8, 2, 16)},
	} {
		n := tc.n
		place := make([]int, n)
		for i := range place {
			place[i] = i
		}
		for trial := 0; trial < tc.trials; trial++ {
			counts := make([]uint64, n*n)
			bytes := make([]uint64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && rng.Intn(3) != 0 {
						counts[i*n+j] = uint64(rng.Intn(9) + 1)
						bytes[i*n+j] = uint64(rng.Intn(1 << 16))
					}
				}
			}
			sm, err := sparsemat.FromDense(counts, bytes, n)
			if err != nil {
				t.Fatal(err)
			}
			_, densified := sm.Dense()
			kd, err := ComputeMapping(sparsemat.DenseView(densified, n), tc.topo, place)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := ComputeMapping(sm, tc.topo, place)
			if err != nil {
				t.Fatal(err)
			}
			for i := range kd {
				if kd[i] != ks[i] {
					t.Fatalf("n %d trial %d: k diverged at rank %d: dense view %v, sparse %v", n, trial, i, kd, ks)
				}
			}
		}
	}
}

func TestComputeMappingErrors(t *testing.T) {
	topo := topology.MustNew(2, 2)
	place := []int{0, 1, 2, 3}
	sm := &sparsemat.Matrix{N: 4, Rows: make([]sparsemat.Row, 3)}
	if _, err := ComputeMapping(sm, topo, place); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	if _, err := ComputeMapping(sparsemat.DenseView(make([]uint64, 15), 4), topo, place); err == nil {
		t.Fatal("mismatched dense length accepted")
	}
}
