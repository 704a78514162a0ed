package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/telemetry"
)

// GatherScaleConfig parameterizes the sparse-gather scaling experiment: a
// 2D stencil skeleton (each rank exchanges size-only messages with its
// grid neighbours) monitored for a few iterations, then the session's
// matrix is gathered with the sparse wire format. The experiment records
// how the gather payload and root memory scale with the world size — the
// point of the O(nnz) data path, since a stencil rank talks to ≤ 4 peers
// no matter how large the world is.
type GatherScaleConfig struct {
	// NPs are the world sizes; each must be a perfect square (the rank
	// grid is √np x √np — 4096 is the 64x64 stencil).
	NPs []int
	// Iters is the number of monitored halo-exchange iterations.
	Iters int
	// MsgBytes is the logical size of one halo message (skeleton mode:
	// no payload is allocated).
	MsgBytes int
	// AllgatherUpTo bounds the world sizes that also run AllgatherSparse;
	// its ring moves O(np) blocks per rank, which is wasteful to simulate
	// at np = 4096 when the rootgather already pins the wire size.
	AllgatherUpTo int
}

// DefaultGatherScale runs the issue's three stencil worlds.
var DefaultGatherScale = GatherScaleConfig{
	NPs:           []int{256, 1024, 4096},
	Iters:         5,
	MsgBytes:      4096,
	AllgatherUpTo: 1024,
}

// GatherRow is one world size's outcome.
type GatherRow struct {
	NP  int
	NNZ int
	// RootWireBytes is the payload of the streamed root gather (telemetry
	// counter mpimon_gather_wire_bytes_total{op="rootgather"}).
	RootWireBytes uint64
	// RootPeakBytes is root's largest transient receive buffer (gauge
	// mpimon_rootgather_peak_buffer_bytes).
	RootPeakBytes int64
	// AllWireBytes is the per-rank payload of the sparse allgather; zero
	// when the size was beyond AllgatherUpTo.
	AllWireBytes uint64
	// DenseBytes is what the dense path moves to (and allocates at) the
	// root: two n x n uint64 matrices, 16 n² bytes.
	DenseBytes uint64
	// RootWireRatio and RootPeakRatio are DenseBytes over the measured
	// sparse wire size and peak buffer.
	RootWireRatio float64
	RootPeakRatio float64
	WallSeconds   float64
}

// GatherScale runs the experiment.
func GatherScale(cfg GatherScaleConfig) ([]GatherRow, error) {
	if err := checkNPs("gather-scale", cfg.NPs...); err != nil {
		return nil, err
	}
	var rows []GatherRow
	for _, np := range cfg.NPs {
		row, err := gatherScaleOne(np, cfg)
		if err != nil {
			return nil, fmt.Errorf("np %d: %w", np, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func gatherScaleOne(np int, cfg GatherScaleConfig) (GatherRow, error) {
	gx := intSqrt(np)
	if gx*gx != np {
		return GatherRow{}, fmt.Errorf("np %d is not a perfect square", np)
	}
	tel := telemetry.New()
	w, err := PlaFRIMWorld(np, nil, mpi.WithTelemetry(tel))
	if err != nil {
		return GatherRow{}, err
	}
	t0 := time.Now()
	var nnz int
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
		if err := StencilSkeleton(c, gx, cfg.Iters, cfg.MsgBytes); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if np <= cfg.AllgatherUpTo {
			if _, err := s.AllgatherSparse(monitoring.AllComm); err != nil {
				return err
			}
		}
		sm, err := s.RootgatherSparse(0, monitoring.AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			nnz = sm.NNZ()
		}
		return s.Free()
	})
	if err != nil {
		return GatherRow{}, err
	}
	reg := tel.Registry()
	row := GatherRow{
		NP:            np,
		NNZ:           nnz,
		RootWireBytes: reg.Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "rootgather")).Value(),
		RootPeakBytes: reg.Gauge("mpimon_rootgather_peak_buffer_bytes").Value(),
		DenseBytes:    16 * uint64(np) * uint64(np),
		WallSeconds:   time.Since(t0).Seconds(),
	}
	// The allgather counter aggregates every member's received payload;
	// report the per-rank figure, comparable to DenseBytes.
	row.AllWireBytes = reg.Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "allgather")).Value() / uint64(np)
	if row.RootWireBytes > 0 {
		row.RootWireRatio = float64(row.DenseBytes) / float64(row.RootWireBytes)
	}
	if row.RootPeakBytes > 0 {
		row.RootPeakRatio = float64(row.DenseBytes) / float64(row.RootPeakBytes)
	}
	return row, nil
}

// StencilSkeleton runs iters halo exchanges of a non-periodic 2D stencil on
// a gx-wide rank grid: every rank sends a size-only message of msgBytes to
// each of its (up to 4) grid neighbours and drains the same number of
// arrivals. The communicator's size must be gx².
func StencilSkeleton(c *mpi.Comm, gx, iters, msgBytes int) error {
	const tag = 9<<19 + 41
	me := c.Rank()
	x, y := me%gx, me/gx
	var nbs []int
	if x > 0 {
		nbs = append(nbs, me-1)
	}
	if x < gx-1 {
		nbs = append(nbs, me+1)
	}
	if y > 0 {
		nbs = append(nbs, me-gx)
	}
	if y < gx-1 {
		nbs = append(nbs, me+gx)
	}
	for it := 0; it < iters; it++ {
		for _, nb := range nbs {
			if err := c.SendN(nb, tag, msgBytes); err != nil {
				return err
			}
		}
		for range nbs {
			if _, err := c.Recv(mpi.AnySource, tag, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// PrintGatherScale writes the scaling table.
func PrintGatherScale(w io.Writer, rows []GatherRow) {
	Fprintf(w, "# np\tnnz\troot_wire_B\troot_peak_B\tallgather_wire_B\tdense_B\troot_wire_ratio\troot_peak_ratio\twall_s\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.2f\n",
			r.NP, r.NNZ, r.RootWireBytes, r.RootPeakBytes, r.AllWireBytes, r.DenseBytes,
			r.RootWireRatio, r.RootPeakRatio, r.WallSeconds)
	}
}
