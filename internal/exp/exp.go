// Package exp implements the paper's experiments (Sec. 6): each figure and
// table has a driver returning structured rows, shared by cmd/exp (one
// table of experiments behind Main) and the benchmark harness in the
// repository root. The mapping is:
//
//	Fig. 2/3  HWCounters        — NIC counters vs introspection monitoring
//	Fig. 4    Overhead          — monitoring overhead on a small reduce
//	Fig. 5    CollectiveOpt     — reduce/bcast with rank reordering
//	Fig. 6    ReorderHeatmap    — allgather groups, gain vs (iters x size)
//	Fig. 7    CGReorder         — NAS CG with reordering, three mappings
//	Table 1   TreeMatchScale    — TreeMatch time on large matrices
package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// PlaFRIMWorld builds the paper's standard experiment world: np ranks, 24
// cores per node (2x12), on ceil(np/24) nodes, with the given placement
// (nil for packed).
func PlaFRIMWorld(np int, placement []int, opts ...mpi.Option) (*mpi.World, error) {
	nodes := (np + 23) / 24
	mach := netsim.PlaFRIM(nodes)
	if placement != nil {
		opts = append(opts, mpi.WithPlacement(placement))
	}
	return newWorld(mach, np, opts...)
}

// worldOptions are prepended to every experiment world's options: the
// telemetry hub of cmd/exp's shared -telemetry flag (see runShared), which
// reaches the drivers this way instead of through every signature. Not safe
// to change while a driver is running.
var worldOptions []mpi.Option

// newWorld is the single world constructor of the experiment drivers. Every
// experiment world runs on the event engine, whose virtual clocks are a
// pure function of (program, machine, seed) and on which a cyclic wait is
// an immediate mpi.ErrDeadlock, so the drivers need no host watchdog.
// worldOptions come next, then the driver's own options (which win).
func newWorld(mach *netsim.Machine, np int, opts ...mpi.Option) (*mpi.World, error) {
	all := append([]mpi.Option{mpi.WithEngine(mpi.EngineEvent)}, worldOptions...)
	return mpi.NewWorld(mach, np, append(all, opts...)...)
}

// Nodes returns the node count the paper uses for a given rank count (24
// ranks per node; the CG runs use 3/6/11 nodes for 64/128/256 ranks, i.e.
// ceil with spare cores).
func Nodes(np int) int { return (np + 23) / 24 }

// Fprintf is fmt.Fprintf with the error discarded; experiment printers
// write to stdout or a buffer where failures are not actionable.
func Fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// Ms converts a duration to milliseconds as float.
func Ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Us converts a duration to microseconds as float.
func Us(d time.Duration) float64 { return float64(d) / 1e3 }
