package exp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/reorder"
	"mpimon/internal/telemetry"
)

// FaultsConfig parameterizes the resilience experiment: an iterative
// clique workload runs under a fault plan that degrades one link and then
// kills the last node mid-iteration; the survivors recover with the
// ULFM-style Revoke/Shrink/Agree sequence and re-optimize placement with a
// deliberately starved mapping budget, exercising the reorder retry path
// down to its identity fallback.
type FaultsConfig struct {
	NP         int           // ranks; round-robin over ceil(NP/4) per-node cliques
	Clique     int           // ranks per communication clique
	MsgSize    int           // allgather block bytes
	ComputePer time.Duration // virtual compute per iteration
	Iters      int           // iteration budget (death interrupts it)
	DeathAt    time.Duration // virtual death time of the last node
	// MappingTimeout and Retries starve the post-recovery reorder so its
	// retry/backoff chain exhausts and degrades to the identity
	// permutation — the graceful-degradation path under test. The timeout
	// is virtual (compared with the modelled mapping cost), so the
	// starvation does not depend on the host.
	MappingTimeout time.Duration
	Retries        int
}

// DefaultFaults kills the third node halfway through the iteration budget.
var DefaultFaults = FaultsConfig{
	NP:             12,
	Clique:         4,
	MsgSize:        64 << 10,
	ComputePer:     50 * time.Microsecond,
	Iters:          20,
	DeathAt:        time.Millisecond,
	MappingTimeout: time.Nanosecond,
	Retries:        2,
}

// FaultsResult summarizes one resilience run.
type FaultsResult struct {
	ItersDone   int   // completed iterations before the failure surfaced
	FailedRanks []int // world ranks that died with their node
	DeadNodes   []int
	Survivors   int    // size of the shrunken communicator
	Agreed      uint32 // Agree outcome over the survivors' health flags
	IdentityK   bool   // the starved reorder degraded to identity
	// Telemetry totals (the counters the run must make visible).
	ProcFailures uint64
	Revocations  uint64
	Shrinks      uint64
	Injections   uint64
	MapRetries   uint64
	MapFallbacks uint64
	InjStats     faults.Stats
}

// Faults runs the experiment: monitor the healthy phase, lose a node, let
// every survivor converge through Revoke/Shrink/Agree, then reorder the
// shrunken job with a starved mapping budget. It must terminate without
// hangs whatever the interleaving of deaths and collectives.
func Faults(cfg FaultsConfig) (FaultsResult, error) {
	if cfg.NP%cfg.Clique != 0 {
		return FaultsResult{}, fmt.Errorf("exp: np %d not a multiple of clique %d", cfg.NP, cfg.Clique)
	}
	nodes := cfg.NP / cfg.Clique // one clique member per node
	if nodes < 2 {
		return FaultsResult{}, fmt.Errorf("exp: need at least 2 nodes, clique %d on %d ranks gives %d", cfg.Clique, cfg.NP, nodes)
	}
	mach := netsim.PlaFRIM(nodes)
	place := make([]int, cfg.NP)
	for i := range place {
		place[i] = (i%nodes)*24 + i/nodes // round-robin: every clique straddles the dead node
	}
	victim := nodes - 1
	plan := &faults.Plan{
		Seed: 1,
		// A degraded link during the healthy phase: latency spikes and
		// half bandwidth on everything, so the injection counters are
		// exercised without losing messages (drops inside collectives
		// would turn the experiment into a hang reproducer).
		Links: []faults.LinkRule{{
			SrcNode: -1, DstNode: -1,
			Until:          cfg.DeathAt,
			ExtraLatency:   2 * time.Microsecond,
			BandwidthScale: 0.5,
		}},
		Deaths: []faults.NodeDeath{{Node: victim, At: cfg.DeathAt}},
	}
	tel := telemetry.New()
	w, err := newWorld(mach, cfg.NP, mpi.WithPlacement(place), mpi.WithFaultPlan(plan), mpi.WithTelemetry(tel))
	if err != nil {
		return FaultsResult{}, err
	}
	res := FaultsResult{}
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		// The clique communicator is split once, while every rank is alive,
		// so no survivor can fail inside Split while a peer already waits on
		// the new communicator.
		sub, err := c.Split(c.Rank()/cfg.Clique, c.Rank())
		if err != nil {
			return err
		}

		// Healthy phase, until the fault plan interrupts it.
		iters := 0
		var ferr error
		for i := 0; i < cfg.Iters; i++ {
			c.Proc().Compute(cfg.ComputePer)
			if ferr = sub.AllgatherN(cfg.MsgSize); ferr != nil {
				break
			}
			if ferr = c.Barrier(); ferr != nil {
				break
			}
			iters++
		}
		if ferr == nil {
			return fmt.Errorf("exp: fault plan never fired in %d iterations", cfg.Iters)
		}
		if c.Proc().Failed() {
			return ferr // dying ranks unwind; the runtime filters this
		}
		if !errors.Is(ferr, mpi.ErrProcFailed) && !errors.Is(ferr, mpi.ErrRevoked) {
			return ferr
		}

		// ULFM recovery: revoke both communicators, whichever call failed
		// — a survivor whose error came from the world Barrier must still
		// wake its clique peers blocked in the allgather, and vice versa —
		// so every survivor learns of the failure; then shrink to the
		// survivors and agree on the outcome.
		if err := sub.Revoke(); err != nil {
			return err
		}
		if err := c.Revoke(); err != nil {
			return err
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		agreed, err := nc.Agree(1)
		if err != nil {
			return err
		}

		// Re-optimize the shrunken job with a starved mapping budget: the
		// mapping times out, retries with backoff, exhausts, and degrades
		// to the identity permutation — the run keeps going regardless.
		_, k, err := reorder.MonitorAndReorder(env, nc, func(rc *mpi.Comm) error {
			sub, err := rc.Split(rc.Rank()/cfg.Clique, rc.Rank())
			if err != nil {
				return err
			}
			return sub.AllgatherN(cfg.MsgSize)
		},
			reorder.WithMappingTimeout(cfg.MappingTimeout),
			reorder.WithRetries(cfg.Retries),
			reorder.WithBackoff(10*time.Microsecond),
		)
		if err != nil {
			return err
		}
		if nc.Rank() == 0 {
			identity := true
			for i, v := range k {
				if v != i {
					identity = false
					break
				}
			}
			res.ItersDone = iters
			res.Survivors = nc.Size()
			res.Agreed = agreed
			res.IdentityK = identity
		}
		return nil
	})
	if err != nil {
		return FaultsResult{}, err
	}
	res.FailedRanks = w.FailedRanks()
	res.DeadNodes = w.DeadNodes()
	reg := tel.Registry()
	res.ProcFailures = reg.CounterTotal("mpimon_proc_failures_total")
	res.Revocations = reg.CounterTotal("mpimon_comm_revocations_total")
	res.Shrinks = reg.CounterTotal("mpimon_comm_shrinks_total")
	res.Injections = reg.CounterTotal("mpimon_fault_injections_total")
	res.MapRetries = reg.CounterTotal("mpimon_reorder_retries_total")
	res.MapFallbacks = reg.CounterTotal("mpimon_reorder_fallback_total")
	if inj := w.FaultInjector(); inj != nil {
		res.InjStats = inj.Stats()
	}
	return res, nil
}

// PrintFaults writes the run summary and the telemetry counters.
func PrintFaults(w io.Writer, cfg FaultsConfig, r FaultsResult) {
	Fprintf(w, "# resilience run: np=%d clique=%d death_at=%v\n", cfg.NP, cfg.Clique, cfg.DeathAt)
	Fprintf(w, "iterations_completed\t%d\n", r.ItersDone)
	Fprintf(w, "failed_ranks\t%v\n", r.FailedRanks)
	Fprintf(w, "dead_nodes\t%v\n", r.DeadNodes)
	Fprintf(w, "survivors\t%d\n", r.Survivors)
	Fprintf(w, "agree_flags\t%#x\n", r.Agreed)
	Fprintf(w, "reorder_identity_fallback\t%v\n", r.IdentityK)
	Fprintf(w, "# telemetry counters\n")
	Fprintf(w, "mpimon_proc_failures_total\t%d\n", r.ProcFailures)
	Fprintf(w, "mpimon_comm_revocations_total\t%d\n", r.Revocations)
	Fprintf(w, "mpimon_comm_shrinks_total\t%d\n", r.Shrinks)
	Fprintf(w, "mpimon_fault_injections_total\t%d\n", r.Injections)
	Fprintf(w, "mpimon_reorder_retries_total\t%d\n", r.MapRetries)
	Fprintf(w, "mpimon_reorder_fallback_total\t%d\n", r.MapFallbacks)
	Fprintf(w, "# injector stats: latency=%d bandwidth=%d drops=%d dups=%d\n",
		r.InjStats.LatencyFaults, r.InjStats.BandwidthFaults, r.InjStats.Drops, r.InjStats.Duplicates)
}
