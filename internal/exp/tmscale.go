package exp

import (
	"fmt"
	"io"
	"log"
	"sync/atomic"
	"time"

	"mpimon/internal/topology"
	"mpimon/internal/treematch"
	"mpimon/internal/workloads"
)

// TMScaleConfig parameterizes Table 1: TreeMatch mapping time for large
// communication matrices.
type TMScaleConfig struct {
	Orders []int // paper: 8192, 16384, 32768, 65536
	// ClusterSize shapes the synthetic sparse matrix (the paper does not
	// describe its matrices; see DESIGN.md substitution table).
	ClusterSize int
	Seed        int64
	// FromWorld replaces the synthetic matrices with real ones: each order
	// (then a perfect square, e.g. 4096, 16384, 65536) runs a monitored
	// stencil-skeleton world, gathers its sparse matrix with
	// RootgatherSparse and maps that — the paper's whole
	// introspect-then-reorder pipeline at Table 1 scale.
	FromWorld bool
	// Iters and MsgBytes shape the from-world stencil phase; zero values
	// take the DefaultEngineScale settings.
	Iters    int
	MsgBytes int
}

// DefaultTMScale mirrors the paper's orders.
var DefaultTMScale = TMScaleConfig{
	Orders:      []int{8192, 16384, 32768, 65536},
	ClusterSize: 32,
	Seed:        7,
}

// TMRow is one row of Table 1.
type TMRow struct {
	Order   int
	Seconds float64
}

// TreeMatchScale measures the wall time of TreeMatch on synthetic sparse
// clustered matrices of growing order, mapped onto a machine with exactly
// order cores (nodes of 32 cores), as when reordering that many MPI
// processes.
func TreeMatchScale(cfg TMScaleConfig) ([]TMRow, error) {
	for _, order := range cfg.Orders {
		if order < 32 || order%32 != 0 {
			return nil, fmt.Errorf("exp: treematch-scale needs orders that are positive multiples of 32 (the cores of a node), got %d", order)
		}
	}
	// Surface capped-refinement fallbacks (the former silent refineBudget
	// cliff) so a degraded mapping of a huge matrix is visible in the log.
	var degraded, skipped atomic.Int64
	prev := treematch.OnRefineDegrade
	treematch.OnRefineDegrade = func(d treematch.RefineDegrade) {
		degraded.Add(1)
		skipped.Add(int64(d.PairsSkipped))
		if prev != nil {
			prev(d)
		}
	}
	defer func() { treematch.OnRefineDegrade = prev }()

	var rows []TMRow
	for _, order := range cfg.Orders {
		m, err := tmScaleMatrix(order, cfg)
		if err != nil {
			return nil, err
		}
		topo, err := topology.New(order/32, 2, 16)
		if err != nil {
			return nil, err
		}
		degraded.Store(0)
		skipped.Store(0)
		t0 := time.Now()
		if _, err := treematch.MapTree(m, topo.FullTree()); err != nil {
			return nil, err
		}
		if n := degraded.Load(); n > 0 {
			log.Printf("treematch-scale: order %d: refinement capped in %d subproblems (%d part pairs left unrefined)",
				order, n, skipped.Load())
		}
		rows = append(rows, TMRow{Order: order, Seconds: time.Since(t0).Seconds()})
	}
	return rows, nil
}

// tmScaleMatrix produces the affinity matrix for one Table 1 order: the
// synthetic clustered matrix by default, or — in from-world mode — the
// sparse matrix a monitored stencil world of that size actually gathered,
// converted in O(nnz) by FromView.
func tmScaleMatrix(order int, cfg TMScaleConfig) (*treematch.Matrix, error) {
	if !cfg.FromWorld {
		return workloads.ClusteredSparse(order, cfg.ClusterSize, 1000, 1, cfg.Seed), nil
	}
	iters, msgBytes := cfg.Iters, cfg.MsgBytes
	if iters == 0 {
		iters = DefaultEngineScale.Iters
	}
	if msgBytes == 0 {
		msgBytes = DefaultEngineScale.MsgBytes
	}
	sm, row, err := StencilWorldSparse(order, iters, msgBytes)
	if err != nil {
		return nil, fmt.Errorf("from-world order %d: %w", order, err)
	}
	log.Printf("treematch-scale: order %d: %d events in %.2fs (%.0f events/s), %.1f MB heap, nnz %d",
		order, row.Events, row.WallSeconds, row.EventsPerSec, row.HeapMB, row.NNZ)
	return treematch.FromView(sm)
}

// PrintTMScale writes Table 1.
func PrintTMScale(w io.Writer, rows []TMRow) {
	Fprintf(w, "# com_matrix_order\treordering_time_s\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%.1f\n", r.Order, r.Seconds)
	}
}
