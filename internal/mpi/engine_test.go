package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/golden"
	"mpimon/internal/netsim"
)

// The engine-equivalence pin: on configurations where the goroutine engine
// is itself deterministic (no NIC contention, no wildcard receives), both
// engines must produce bit-identical results — monitored matrices, virtual
// clocks, MPI time, NIC counters, fault outcomes. The event engine is not
// allowed to be "approximately" the runtime; it must BE the runtime.

// requireSameState fails t at the first line where got's world state
// differs from want's.
func requireSameState(t *testing.T, got, want *World, what string) {
	t.Helper()
	if d := golden.Diff(got.State(), want.State()); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// equivMachine returns a contention-free machine with at least np cores:
// with Contention on, concurrent same-node senders race for NIC slots in
// wall-clock order under the goroutine engine, which is exactly the
// nondeterminism the pin must exclude to have a well-defined expectation.
func equivMachine(np int) *netsim.Machine {
	var m *netsim.Machine
	switch {
	case np <= 8:
		m = testMachine()
	case np <= 48:
		m = netsim.PlaFRIM(2)
	default:
		m = netsim.MultiSwitch(2, (np+47)/48)
	}
	m.Contention = false
	return m
}

// equivWorkload mixes the runtime's machinery: an eager and a rendezvous
// ring, compute skew, collectives (monitored as Coll), and a fan-in to rank
// 0 — all with specific sources, so the goroutine engine is deterministic.
func equivWorkload(c *Comm) error {
	np, rank := c.Size(), c.Rank()
	p := c.Proc()
	right, left := (rank+1)%np, (rank+np-1)%np
	for it := 0; it < 3; it++ {
		sz := 512 + it*30000 // eager and rendezvous sizes on every machine
		if err := c.SendN(right, it, sz); err != nil {
			return err
		}
		if _, err := c.Recv(left, it, nil); err != nil {
			return err
		}
		p.Compute(time.Duration(rank%7) * time.Microsecond)
	}
	if err := c.Bcast(make([]byte, 2048), 0); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	recv := make([]byte, 8)
	if err := c.Allreduce(EncodeUint64s([]uint64{uint64(rank)}), recv, Uint64, OpSum); err != nil {
		return err
	}
	if want := uint64(np * (np - 1) / 2); DecodeUint64s(recv)[0] != want {
		return fmt.Errorf("rank %d: allreduce sum %d, want %d", rank, DecodeUint64s(recv)[0], want)
	}
	if rank != 0 {
		return c.SendN(0, 99, 1000+rank)
	}
	for s := 1; s < np; s++ {
		if _, err := c.Recv(s, 99, nil); err != nil {
			return err
		}
	}
	return nil
}

func runEngine(t *testing.T, np int, eng Engine, fn func(c *Comm) error, opts ...Option) *World {
	t.Helper()
	w, err := NewWorld(equivMachine(np), np, append(opts, WithEngine(eng))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunWithTimeout(2*time.Minute, fn); err != nil {
		t.Fatalf("np=%d engine=%s: %v", np, eng.Name(), err)
	}
	return w
}

func TestEngineEquivalence(t *testing.T) {
	for _, np := range []int{4, 48, 256} {
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			wg := runEngine(t, np, EngineGoroutine, equivWorkload)
			we := runEngine(t, np, EngineEvent, equivWorkload)
			requireSameState(t, we, wg, fmt.Sprintf("np=%d: event engine (got) vs goroutine engine (want)", np))
			if got := we.EngineStats().Events; got == 0 {
				t.Fatal("event engine reported zero dispatches")
			}
			if got := wg.EngineStats().Events; got != 0 {
				t.Fatalf("goroutine engine reported %d dispatches, want 0", got)
			}
		})
	}
}

// TestEngineEquivalenceFaults pins fault outcomes across engines: a node
// death materializes at the same virtual time, kills the same ranks, and
// the survivors' traffic matrices agree bit for bit. Survivors detect the
// death through blocking receives (receive errors never touch the
// send-side matrices, so detection timing cannot leak into the pin).
func TestEngineEquivalenceFaults(t *testing.T) {
	// testMachine: cores 0-3 are node 0, cores 4-7 node 1. Ranks 0,1 on
	// node 0 survive; ranks 2,3 on node 1 die at 1ms.
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	var gate chan struct{}
	workload := func(c *Comm) error {
		np, rank := c.Size(), c.Rank()
		p := c.Proc()
		// Phase 1, well before the death: a monitored ring.
		if err := c.SendN((rank+1)%np, 1, 4096); err != nil {
			return err
		}
		if _, err := c.Recv((rank+np-1)%np, 1, nil); err != nil {
			return err
		}
		if rank >= 2 {
			// Phase 2 on the doomed node. Node death is total (the first
			// rank to die also fails its node sibling) and the goroutine
			// engine lets a rank run arbitrarily far ahead in wall-clock
			// time, so the deaths must be token-gated behind every send
			// that targets the doomed node — otherwise a straggling
			// survivor's phase-1 send toward rank 2 can hit an
			// already-failed destination and abort the world. Rank 3
			// therefore waits for a go-token from each survivor (sent
			// after all their doomed-bound traffic) before arming the
			// death; its tag-15 token then orders rank 2's death after
			// rank 3's own monitored sends. A collective cannot provide
			// either edge: its tree sends toward the doomed ranks race
			// the wall-clock visibility of the failed flags. The token
			// orders the deaths in virtual time only: on the goroutine
			// engine rank 3 could still run on, die and fail its sibling
			// before rank 2 has been scheduled into that receive, which
			// then fails at its gate with rank 2's clock short of the
			// death. gate is the wall-clock edge — rank 3 holds until
			// rank 2 is out of the receive; after it each of them only
			// computes and dies by its own clock. The event engine runs
			// ranks in virtual-time order and needs no gate (nil).
			if rank == 3 {
				if _, err := c.Recv(0, 16, nil); err != nil {
					return err
				}
				if _, err := c.Recv(1, 16, nil); err != nil {
					return err
				}
				if err := c.SendN(2, 15, 8); err != nil {
					return err
				}
				if gate != nil {
					<-gate
				}
			} else {
				_, err := c.Recv(3, 15, nil)
				if gate != nil {
					close(gate)
				}
				if err != nil {
					return err
				}
			}
			// Run past the death time; the next operation materializes the
			// failure before anything is recorded or transmitted.
			p.Compute(2 * time.Millisecond)
			return c.SendN(0, 2, 64)
		}
		// Survivors: all sends toward the doomed node are done — release
		// the deaths, then block on the dead ranks until the failure
		// surfaces.
		if err := c.SendN(3, 16, 8); err != nil {
			return err
		}
		if _, err := c.Recv(rank+2, 2, nil); !errors.Is(err, ErrProcFailed) {
			return fmt.Errorf("rank %d: recv from dead rank: %v, want ErrProcFailed", rank, err)
		}
		// Post-failure traffic between survivors still monitors normally.
		peer := 1 - rank
		if err := c.SendN(peer, 3, 2222); err != nil {
			return err
		}
		if _, err := c.Recv(peer, 3, nil); err != nil {
			return err
		}
		return nil
	}
	build := func(eng Engine) *World {
		w, err := NewWorld(testMachine(), 4, WithPlacement([]int{0, 1, 4, 5}),
			WithFaultPlan(plan), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunWithTimeout(time.Minute, workload); err != nil {
			t.Fatalf("engine %s: %v", eng.Name(), err)
		}
		return w
	}
	gate = make(chan struct{})
	wg := build(EngineGoroutine)
	gate = nil
	we := build(EngineEvent)
	for _, w := range []*World{wg, we} {
		if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{2, 3}) {
			t.Fatalf("FailedRanks = %v, want [2 3]", got)
		}
		if got := w.DeadNodes(); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("DeadNodes = %v, want [1]", got)
		}
	}
	requireSameState(t, we, wg, "faults: event engine (got) vs goroutine engine (want)")
}

// TestEventEngineReplay runs the same configuration twice on the event
// engine and requires identical results AND identical scheduling work —
// the replayability claim.
func TestEventEngineReplay(t *testing.T) {
	w1 := runEngine(t, 48, EngineEvent, equivWorkload)
	w2 := runEngine(t, 48, EngineEvent, equivWorkload)
	requireSameState(t, w2, w1, "replay (got) vs first run (want)")
	if a, b := w1.EngineStats().Events, w2.EngineStats().Events; a != b {
		t.Fatalf("replay dispatched %d events vs %d", b, a)
	}
}

// TestEventEngineDeadlock: a cyclic wait that would hang the goroutine
// engine (until a watchdog fires) is detected immediately by the event
// engine and surfaced as ErrDeadlock.
func TestEventEngineDeadlock(t *testing.T) {
	w, err := NewWorld(testMachine(), 2, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		// Both ranks receive first: nobody ever sends.
		_, err := c.Recv(1-c.Rank(), 0, nil)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run returned %v, want ErrDeadlock", err)
	}
}

// TestEventEngineVirtualTimeout: under the event engine RecvTimeout's
// deadline is virtual time, so an expired wait advances the clock exactly
// to the deadline — no wall clock anywhere.
func TestEventEngineVirtualTimeout(t *testing.T) {
	w, err := NewWorld(testMachine(), 2, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	const d = 5 * time.Millisecond
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // never sends
		}
		_, err := c.RecvTimeout(1, 0, nil, d)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("RecvTimeout: %v, want ErrTimeout", err)
		}
		if got := c.Proc().Clock(); got != d {
			return fmt.Errorf("clock after virtual timeout = %v, want %v", got, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// And a message that arrives in virtual time before the deadline is
	// delivered normally.
	w2, err := NewWorld(testMachine(), 2, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	err = w2.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Proc().Compute(time.Millisecond)
			return c.SendN(0, 0, 256)
		}
		st, err := c.RecvTimeout(1, 0, nil, d)
		if err != nil {
			return err
		}
		if st.Size != 256 {
			return fmt.Errorf("received %d bytes, want 256", st.Size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Engine
		ok   bool
	}{
		{"", nil, true},
		{"auto", nil, true},
		{"goroutine", EngineGoroutine, true},
		{"event", EngineEvent, true},
		{"threads", nil, false},
	} {
		got, err := EngineByName(tc.name)
		if (err == nil) != tc.ok {
			t.Fatalf("EngineByName(%q) error = %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("EngineByName(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEngineAutoSelection checks the size-based default: small worlds run
// on goroutines, worlds beyond EngineAutoThreshold switch to the event
// engine unless an explicit engine was configured.
func TestEngineAutoSelection(t *testing.T) {
	small := newTestWorld(t, 4)
	if got := small.Engine().Name(); got != "goroutine" {
		t.Fatalf("small world engine = %s, want goroutine", got)
	}
	big, err := NewWorld(netsim.PlaFRIM(350), 8400, nil...)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Engine().Name(); got != "event" {
		t.Fatalf("world of 8400 ranks engine = %s, want event", got)
	}
	forced, err := NewWorld(netsim.PlaFRIM(350), 8400, WithEngine(EngineGoroutine))
	if err != nil {
		t.Fatal(err)
	}
	if got := forced.Engine().Name(); got != "goroutine" {
		t.Fatalf("forced engine = %s, want goroutine", got)
	}
}
