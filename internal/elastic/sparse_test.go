package elastic

import (
	"reflect"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// TestReconfigureViewSparseMatchesDense pins that a sparse matrix produces
// the identical Plan — placement, moves, cross-node counts and migration
// estimate — as DenseView over its densified bytes plane, for both a shrink
// (node failure) and a grow (spare cores) scenario.
func TestReconfigureViewSparseMatchesDense(t *testing.T) {
	topo := topology.MustNew(3, 4)
	n := 8
	mat := pairMatrix(n)
	counts := make([]uint64, n*n)
	for i, b := range mat {
		if b > 0 {
			counts[i] = 1
		}
	}
	sm, err := sparsemat.FromDense(counts, mat, n)
	if err != nil {
		t.Fatal(err)
	}
	_, densified := sm.Dense()
	cases := []struct {
		name  string
		avail []int
	}{
		{"shrink", Shrink(topo, 1)},
		{"grow", Shrink(topo)},
	}
	oldPlace := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range cases {
		want, err := ReconfigureView(sparsemat.DenseView(densified, n), topo, oldPlace, tc.avail, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := ReconfigureView(sm, topo, oldPlace, tc.avail, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: plans diverged:\ndense:  %+v\nsparse: %+v", tc.name, want, got)
		}
	}
}

func TestReconfigureSparseErrors(t *testing.T) {
	topo := topology.MustNew(2, 2)
	sm, err := sparsemat.FromDense(make([]uint64, 4), make([]uint64, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconfigureView(sm, topo, []int{0}, []int{0, 1}, 0); err == nil {
		t.Fatal("placement length mismatch accepted")
	}
	if _, err := ReconfigureView(sm, topo, []int{0, 1}, []int{0}, 0); err == nil {
		t.Fatal("too few available cores accepted")
	}
}
