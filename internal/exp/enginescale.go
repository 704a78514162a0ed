package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// EngineScaleConfig parameterizes the execution-engine scaling experiment:
// a monitored 2D stencil skeleton world of growing size, followed by the
// sparse rootgather and (up to MapUpTo) a TreeMatch reordering of the
// gathered matrix — the paper's full introspect-then-map pipeline at sizes
// only the event engine reaches comfortably.
type EngineScaleConfig struct {
	// NPs are the world sizes; each must be a perfect square (65536 is the
	// 256x256 stencil).
	NPs []int
	// Iters is the number of monitored halo-exchange iterations.
	Iters int
	// MsgBytes is the logical size of one halo message (skeleton mode).
	MsgBytes int
	// MapUpTo bounds the sizes that also run FromView + MapTree on
	// an order-np machine; TreeMatch at order 65536 takes far longer than
	// the simulation itself (Table 1), so the big worlds skip it by
	// default.
	MapUpTo int
}

// DefaultEngineScale runs the three worlds the event engine was built for.
var DefaultEngineScale = EngineScaleConfig{
	NPs:      []int{4096, 16384, 65536},
	Iters:    3,
	MsgBytes: 4096,
	MapUpTo:  16384,
}

// EngineRow is one world size's outcome.
type EngineRow struct {
	NP int
	// Events is the number of scheduler dispatches.
	Events       uint64
	EventsPerSec float64
	// WallSeconds covers the world run (construction to teardown),
	// excluding the TreeMatch mapping.
	WallSeconds float64
	// HeapMB is the live heap observed on rank 0 after the monitored
	// phase and the sparse gather, with every world structure reachable —
	// the footprint claim behind "np = 65536 on laptop-class hardware".
	HeapMB float64
	NNZ    int
	// MapSeconds is the FromView + MapTree time; zero when np was
	// beyond MapUpTo.
	MapSeconds float64
}

// EngineScale runs the experiment.
func EngineScale(cfg EngineScaleConfig) ([]EngineRow, error) {
	var rows []EngineRow
	for _, np := range cfg.NPs {
		row, err := engineScaleOne(np, cfg)
		if err != nil {
			return nil, fmt.Errorf("np %d: %w", np, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func engineScaleOne(np int, cfg EngineScaleConfig) (EngineRow, error) {
	sm, row, err := StencilWorldSparse(np, cfg.Iters, cfg.MsgBytes)
	if err != nil {
		return EngineRow{}, err
	}
	if np <= cfg.MapUpTo {
		t0 := time.Now()
		aff, err := treematch.FromView(sm)
		if err != nil {
			return EngineRow{}, err
		}
		topo, err := topology.New(np/32, 2, 16)
		if err != nil {
			return EngineRow{}, err
		}
		if _, err := treematch.MapTree(aff, topo.FullTree()); err != nil {
			return EngineRow{}, err
		}
		row.MapSeconds = time.Since(t0).Seconds()
	}
	return row, nil
}

// StencilWorldSparse runs one monitored stencil-skeleton world of np ranks
// (a perfect square) and returns root's sparse communication matrix plus
// the run's engine metrics. It is the measurement kernel shared by
// EngineScale, the TreeMatchScale from-world mode, and BenchmarkEventEngine.
func StencilWorldSparse(np, iters, msgBytes int) (*sparsemat.Matrix, EngineRow, error) {
	gx := intSqrt(np)
	if gx*gx != np {
		return nil, EngineRow{}, fmt.Errorf("np %d is not a perfect square", np)
	}
	t0 := time.Now()
	var sm *sparsemat.Matrix
	var heapMB float64
	w, err := PlaFRIMWorld(np, nil)
	if err != nil {
		return nil, EngineRow{}, err
	}
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := StencilSkeleton(c, gx, iters, msgBytes); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		m, err := s.RootgatherSparse(0, monitoring.AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			sm = m
			// Live heap with the whole world reachable: every proc,
			// monitor, queue and the gathered matrix.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
		return s.Free()
	})
	if err != nil {
		return nil, EngineRow{}, err
	}
	row := EngineRow{
		NP:          np,
		Events:      w.EngineStats().Events,
		WallSeconds: time.Since(t0).Seconds(),
		HeapMB:      heapMB,
		NNZ:         sm.NNZ(),
	}
	if row.WallSeconds > 0 {
		row.EventsPerSec = float64(row.Events) / row.WallSeconds
	}
	return sm, row, nil
}

// PrintEngineScale writes the scaling table.
func PrintEngineScale(w io.Writer, rows []EngineRow) {
	Fprintf(w, "# np\tevents\tevents_per_s\twall_s\theap_MB\tnnz\tmap_s\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%d\t%.0f\t%.2f\t%.1f\t%d\t%.2f\n",
			r.NP, r.Events, r.EventsPerSec, r.WallSeconds, r.HeapMB, r.NNZ, r.MapSeconds)
	}
}
