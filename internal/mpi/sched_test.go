package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpimon/internal/faults"
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

// TestEventCountPinned pins EngineStats().Events to the values the
// channel-handoff dispatcher produced: a rank that wakes itself without a
// switch still counts exactly one event per dispatch.
func TestEventCountPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		mach *netsim.Machine
		np   int
		fn   func(c *Comm) error
		want uint64
	}{
		{"pingpong", testMachine(), 2, pingPongProgram(1000), 2001},
		{"collround48", netsim.PlaFRIM(2), 48, collRound, 1074},
		{"equiv48", equivMachine(48), 48, equivWorkload, 302},
		{"equiv256", equivMachine(256), 256, equivWorkload, 1731},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(tc.mach, tc.np, WithEngine(EngineEvent))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(tc.fn); err != nil {
				t.Fatal(err)
			}
			if got := w.EngineStats().Events; got != tc.want {
				t.Fatalf("dispatched %d events, pinned %d", got, tc.want)
			}
		})
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
