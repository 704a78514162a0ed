package reorder

import (
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// SwapMapFn installs fn as the full-mapping function for one test (the
// external test package reaches the seam through it too).
func SwapMapFn(t *testing.T, fn func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error)) {
	t.Helper()
	prev := mapFn
	mapFn = fn
	t.Cleanup(func() { mapFn = prev })
}
