package exp

import (
	"fmt"
	"reflect"
	"testing"

	"mpimon/internal/elastic"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// TestMatrixViewRepresentationsAgree is the one-matrix-view acceptance
// gate: on matrices gathered from real monitored worlds (np 4 and 256), the
// sparse matrix and DenseView over its densified bytes plane must give the
// same affinity matrix, permutation and reconfiguration plan. (That the
// matrices arrive identically under both engines is pinned where the engines
// live, by internal/mpi's TestEngineEquivalence.)
func TestMatrixViewRepresentationsAgree(t *testing.T) {
	for _, np := range []int{4, 256} {
		t.Run(fmt.Sprintf("np%d_event", np), func(t *testing.T) {
			sm, _, err := StencilWorldSparse(np, 2, 4096)
			if err != nil {
				t.Fatal(err)
			}
			_, densified := sm.Dense()
			dense := sparsemat.DenseView(densified, np)
			ad, err := treematch.FromView(dense)
			if err != nil {
				t.Fatal(err)
			}
			as, err := treematch.FromView(sm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ad.Dense(), as.Dense()) {
				t.Fatal("affinity matrices of the dense and sparse views differ")
			}
			nodes := np / 8
			if nodes < 1 {
				nodes = 1
			}
			topo := topology.MustNew(nodes, 2, 4)
			place := make([]int, np)
			for i := range place {
				place[i] = i
			}
			kd, err := reorder.ComputeMapping(dense, topo, place)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := reorder.ComputeMapping(sm, topo, place)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kd, ks) {
				t.Fatalf("permutations differ:\nview(dense)  %v\nview(sparse) %v", kd, ks)
			}
			pd, err := elastic.ReconfigureView(dense, topo, place, elastic.Shrink(topo), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := elastic.ReconfigureView(sm, topo, place, elastic.Shrink(topo), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd, ps) {
				t.Fatalf("reconfiguration plans differ:\nview(dense)  %+v\nview(sparse) %+v", pd, ps)
			}
		})
	}
}
