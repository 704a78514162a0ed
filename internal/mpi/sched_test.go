package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/golden"
	"mpimon/internal/netsim"
)

// Scheduler pins for the event engine: how a rank is resumed is free to
// change, which rank is resumed next — and so how many dispatches a program
// costs — is not.

// pingPongProgram bounces n round trips between ranks 0 and 1.
func pingPongProgram(n int) func(c *Comm) error {
	return func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				if err := c.SendN(peer, 0, 8); err != nil {
					return err
				}
			}
			if _, err := c.Recv(peer, 0, nil); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.SendN(peer, 0, 8); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// collRound is one round of the payload collectives the bench's coll-payload
// workload runs: eager and rendezvous sizes, tree and ring algorithms.
func collRound(c *Comm) error {
	np := c.Size()
	if err := c.Bcast(make([]byte, 64<<10), 0); err != nil {
		return err
	}
	out := make([]byte, 8<<10)
	if err := c.Allreduce(make([]byte, 8<<10), out, Byte, OpMax); err != nil {
		return err
	}
	if err := c.Alltoall(make([]byte, np<<10), make([]byte, np<<10)); err != nil {
		return err
	}
	var recv []byte
	if c.Rank() == 0 {
		recv = make([]byte, 128<<10)
	}
	return c.Reduce(make([]byte, 128<<10), recv, Byte, OpSum, 0)
}

// gridNeighbours lists the non-periodic 2D stencil neighbours of rank me
// on a gx-wide grid.
func gridNeighbours(me, gx int) []int {
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
	return nbs
}

// haloProgram runs iters exchanges of a non-periodic 2D stencil skeleton on
// a gx-wide grid: a size-only message to each neighbour, then as many
// Recv(AnySource) — the monitored halo of the benchmark's halo workloads.
// Every fifth rank computes a little per iteration so arrivals do not all
// tie.
func haloProgram(gx, iters int) func(c *Comm) error {
	return func(c *Comm) error {
		nbs := gridNeighbours(c.Rank(), gx)
		for it := 0; it < iters; it++ {
			if (c.Rank()+it)%5 == 0 {
				c.Proc().Compute(3 * time.Microsecond)
			}
			for _, nb := range nbs {
				if err := c.SendN(nb, 7, 1000); err != nil {
					return err
				}
			}
			for range nbs {
				if _, err := c.Recv(AnySource, 7, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// haloTimeoutProgram is haloProgram with RecvTimeout receives: a rank late
// by 30 µs in an iteration makes its neighbours' 10 µs deadlines fire,
// and they retry until every message is in. fired counts the timeouts.
func haloTimeoutProgram(gx, iters int, fired *atomic.Int64) func(c *Comm) error {
	return func(c *Comm) error {
		nbs := gridNeighbours(c.Rank(), gx)
		for it := 0; it < iters; it++ {
			if (c.Rank()+it)%7 == 0 {
				c.Proc().Compute(30 * time.Microsecond)
			}
			for _, nb := range nbs {
				if err := c.SendN(nb, 7, 1000); err != nil {
					return err
				}
			}
			for got := 0; got < len(nbs); {
				_, err := c.RecvTimeout(AnySource, 7, nil, 10*time.Microsecond)
				switch {
				case errors.Is(err, ErrTimeout):
					fired.Add(1)
				case err != nil:
					return err
				default:
					got++
				}
			}
		}
		return nil
	}
}

// haloDeathProgram runs a short AnySource halo on every rank and an Agree
// that no rank leaves before every rank is done with the halo (a sealed
// agreement needs no further message); then the ranks of node 1 compute
// past the plan's death time and die in their next send, while everyone
// else waits in Recv(AnySource) until the failure wakes them
// (wakeAllBlocked) with ErrProcFailed.
func haloDeathProgram(gx int) func(c *Comm) error {
	halo := haloProgram(gx, 3)
	return func(c *Comm) error {
		if err := halo(c); err != nil {
			return err
		}
		if _, err := c.Agree(1); err != nil {
			return err
		}
		if c.Proc().node == 1 {
			c.Proc().Compute(2 * time.Millisecond)
			return c.SendN(0, 1, 8)
		}
		if _, err := c.Recv(AnySource, 1, nil); !errors.Is(err, ErrProcFailed) {
			return fmt.Errorf("rank %d: recv after the node death: %v, want ErrProcFailed", c.Rank(), err)
		}
		return nil
	}
}

// agreeProgram alternates a ring exchange on AnySource with Agree rounds
// entered at skewed clocks, so members park in the agreement (woken by
// wakeRanks at its seal) while ring messages arrive for them.
func agreeProgram(c *Comm) error {
	np, rank := c.Size(), c.Rank()
	for round := 0; round < 4; round++ {
		if err := c.SendN((rank+1)%np, round, 64); err != nil {
			return err
		}
		c.Proc().Compute(time.Duration((rank*7+round*3)%11) * time.Microsecond)
		flag, err := c.Agree(^uint32(1 << (rank % 8)))
		if err != nil {
			return err
		}
		if want := ^uint32(0xff); np >= 8 && flag != want {
			return fmt.Errorf("rank %d: agree = %#x, want %#x", rank, flag, want)
		}
		if _, err := c.Recv(AnySource, round, nil); err != nil {
			return err
		}
	}
	return nil
}

// TestEventCountPinned pins EngineStats().Events and the world's state
// (testdata/golden/TestEventCountPinned/<case>.txt) to the values the
// channel-handoff dispatcher produced (the first four cases) and to those of
// the scheduler that pushed one Wake per matching arrival (the wildcard,
// timeout, failure and agreement cases): a rank that wakes itself without a
// switch still counts exactly one event per dispatch, and a Wake that could
// only pop stale may be skipped but never reorders anything.
func TestEventCountPinned(t *testing.T) {
	deathAt := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	var fired atomic.Int64
	for _, tc := range []struct {
		name string
		mach *netsim.Machine
		np   int
		opts []Option
		fn   func(c *Comm) error
	}{
		{"pingpong", testMachine(), 2, nil, pingPongProgram(1000)},
		{"collround48", netsim.PlaFRIM(2), 48, nil, collRound},
		{"equiv48", equivMachine(48), 48, nil, equivWorkload},
		{"equiv256", equivMachine(256), 256, nil, equivWorkload},
		{"halo256", netsim.PlaFRIM(11), 256, nil, haloProgram(16, 6)},
		{"halo1024", netsim.PlaFRIM(43), 1024, nil, haloProgram(32, 4)},
		{"halotimeout64", netsim.PlaFRIM(3), 64, nil, haloTimeoutProgram(8, 6, &fired)},
		{"halodeath64", netsim.PlaFRIM(3), 64, []Option{WithFaultPlan(deathAt)}, haloDeathProgram(8)},
		{"agree48", netsim.PlaFRIM(2), 48, nil, agreeProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(tc.mach, tc.np, append(tc.opts, WithEngine(EngineEvent))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(tc.fn); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, fmt.Sprintf("events %d\n%s", w.EngineStats().Events, golden.Digest(w.State())))
		})
	}
	if fired.Load() == 0 {
		t.Fatal("no RecvTimeout deadline fired in the timeout halo")
	}
}

// TestOneLiveWakePerWait: a rank parked in Recv(AnySource) while k senders
// send to it, each later than the one before, holds exactly one Wake on
// the event heap — every later arrival's Wake could only pop stale.
func TestOneLiveWakePerWait(t *testing.T) {
	const k = 16
	w, err := NewWorld(netsim.PlaFRIM(1), k+1, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	wakes := make([]int, k+1)
	err = w.Run(func(c *Comm) error {
		r := c.Rank()
		if r == 0 {
			for range k {
				if _, err := c.Recv(AnySource, 0, nil); err != nil {
					return err
				}
			}
			return nil
		}
		c.Proc().Compute(time.Duration(r) * time.Microsecond)
		if err := c.SendN(0, 0, 8); err != nil {
			return err
		}
		// Ranks run in rank order off their time-zero start items, so the
		// heap holds the start items of ranks r+1..k and rank 0's wakes.
		wakes[r] = w.ev.q.Len() - (k - r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= k; r++ {
		if wakes[r] != 1 {
			t.Fatalf("after the send of rank %d the parked receiver holds %d wakes, want 1 (all: %v)", r, wakes[r], wakes[1:])
		}
	}
}

// TestNoLeakedCoroutine: every rank's coroutine is gone when Run returns,
// however the run ended.
func TestNoLeakedCoroutine(t *testing.T) {
	const np = 256
	// The node of ranks 24..47 dies at 1 ms; the survivors see it in a receive.
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	for _, tc := range []struct {
		name string
		opts []Option
		fn   func(c *Comm) error
		ok   func(err error) bool
	}{
		{"normal", nil, equivWorkload, func(err error) bool { return err == nil }},
		{"deadlock", nil, func(c *Comm) error {
			_, err := c.Recv((c.Rank()+1)%np, 0, nil)
			return err
		}, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
		{"panic", nil, func(c *Comm) error {
			if c.Rank() == 100 {
				panic("injected panic")
			}
			return c.Barrier()
		}, func(err error) bool { return err != nil && contains(err.Error(), "injected panic") }},
		{"node death", []Option{WithFaultPlan(plan)}, func(c *Comm) error {
			if c.Rank()/24 == 1 {
				c.Proc().Compute(2 * time.Millisecond)
				return c.SendN(0, 1, 8)
			}
			if _, err := c.Recv(24, 1, nil); !errors.Is(err, ErrProcFailed) {
				return fmt.Errorf("recv from a dead rank: %v, want ErrProcFailed", err)
			}
			return nil
		}, func(err error) bool { return err == nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			w, err := NewWorld(equivMachine(np), np, append(tc.opts, WithEngine(EngineEvent))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(tc.fn); !tc.ok(err) {
				t.Fatalf("Run returned %v", err)
			}
			// A finished coroutine's goroutine leaves the count a moment
			// after its last switch; wait for the event, bounded.
			for i := 0; runtime.NumGoroutine() > base && i < 1000; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Fatalf("%d goroutines after Run, %d before", got, base)
			}
		})
	}
}
