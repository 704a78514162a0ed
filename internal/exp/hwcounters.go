package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/hwcount"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// HWCountersConfig parameterizes the Fig. 2/3 experiment. The defaults
// reproduce the paper: two processes on two InfiniBand-EDR nodes, random
// messages of 1-800 KB separated by 50-1000 ms sleeps, sampled every 10 ms
// over ~40 s.
type HWCountersConfig struct {
	Duration time.Duration
	Period   time.Duration
	MinBytes int
	MaxBytes int
	MinSleep time.Duration
	MaxSleep time.Duration
	Seed     int64
}

// DefaultHWCounters is the paper's setting.
var DefaultHWCounters = HWCountersConfig{
	Duration: 40 * time.Second,
	Period:   10 * time.Millisecond,
	MinBytes: 1 << 10,
	MaxBytes: 800 << 10,
	MinSleep: 50 * time.Millisecond,
	MaxSleep: 1000 * time.Millisecond,
	Seed:     1,
}

// HWCountersResult carries the two observed series, binned at the
// sampling period: what the NIC hardware counter saw and what the
// introspection monitoring library saw.
type HWCountersResult struct {
	HW  []hwcount.Sample
	Mon []hwcount.Sample
	// MaxLagBytes is the largest cumulative divergence between the two
	// series ("the time difference is barely visible").
	MaxLagBytes int64
	TotalBytes  int64
}

// HWCounters runs the Fig. 2/3 experiment: a sender process emits random
// bursts to a receiver on the other node; the NIC transmit events and the
// monitoring records of the same traffic are collected with virtual
// timestamps and binned like the paper's 10 ms sampling thread.
func HWCounters(cfg HWCountersConfig) (HWCountersResult, error) {
	mach := netsim.IBPair()
	// Rank 0 on node 0, rank 1 on node 1.
	w, err := newWorld(mach, 2, mpi.WithPlacement([]int{0, mach.Topo.LeavesPerNode()}))
	if err != nil {
		return HWCountersResult{}, err
	}
	w.Network().SetEventLogging(true)

	var collector hwcount.Collector
	const stopTag = 999
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
		p := c.Proc()
		if c.Rank() == 0 {
			p.Monitor().AddRecorder(collector.Record)
			rng := p.Rand()
			rng.Seed(cfg.Seed)
			for p.Clock() < cfg.Duration {
				size := cfg.MinBytes + rng.Intn(cfg.MaxBytes-cfg.MinBytes+1)
				if err := c.SendN(1, 0, size); err != nil {
					return err
				}
				sleep := cfg.MinSleep + time.Duration(rng.Int63n(int64(cfg.MaxSleep-cfg.MinSleep)))
				p.Sleep(sleep)
			}
			// The collector records this 0-byte stop message too; it adds nothing.
			if err := c.SendN(1, stopTag, 0); err != nil {
				return err
			}
		} else {
			for {
				st, err := c.Recv(0, mpi.AnyTag, nil)
				if err != nil {
					return err
				}
				if st.Tag == stopTag {
					break
				}
			}
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		return s.Free()
	})
	if err != nil {
		return HWCountersResult{}, err
	}

	hwEvents := hwcount.FromXmit(w.Network().DrainEvents(), 0)
	monEvents := collector.Events()
	res := HWCountersResult{
		HW:  hwcount.Bin(hwEvents, cfg.Period, cfg.Duration),
		Mon: hwcount.Bin(monEvents, cfg.Period, cfg.Duration),
	}
	res.MaxLagBytes = hwcount.MaxLag(res.HW, res.Mon)
	res.TotalBytes = hwcount.Total(res.Mon)
	return res, nil
}

// PrintSeries writes the Fig. 2 time series (or, with cumulative, the
// Fig. 3 running sums) as tab-separated columns: time(s), HW volume (Kb),
// introspection volume (Kb).
func (r HWCountersResult) PrintSeries(w io.Writer, cumulative bool) {
	hw, mon := r.HW, r.Mon
	if cumulative {
		hw, mon = hwcount.Cumulative(hw), hwcount.Cumulative(mon)
	}
	Fprintf(w, "# time_s\thw_kb\tintrospection_kb\n")
	for i := range hw {
		m := int64(0)
		if i < len(mon) {
			m = mon[i].Bytes
		}
		Fprintf(w, "%.2f\t%.1f\t%.1f\n", hw[i].T.Seconds(), float64(hw[i].Bytes)/1000, float64(m)/1000)
	}
	fmt.Fprintf(w, "# total %.1f Kb, max cumulative divergence %.1f Kb\n",
		float64(r.TotalBytes)/1000, float64(r.MaxLagBytes)/1000)
}
