package mpi

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/telemetry"
)

// On testMachine (2 nodes x 2 sockets x 2 cores) cores 0-3 are node 0 and
// cores 4-7 are node 1, so placements below put the rank to kill on node 1.

func TestDeathUnblocksRecv(t *testing.T) {
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	w := newTestWorld(t, 2, WithPlacement([]int{0, 4}), WithFaultPlan(plan))
	run(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// Blocks until rank 1's death materializes, then must error
			// out rather than hang.
			_, err := c.Recv(1, 0, make([]byte, 8))
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("rank 0 recv: %v, want ErrProcFailed", err)
			}
		case 1:
			c.Proc().Compute(2 * time.Millisecond)
			err := c.Send(0, 0, []byte("late"))
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("rank 1 send after death: %v, want ErrProcFailed", err)
			}
			if !c.Proc().Failed() {
				t.Error("rank 1 should know it failed")
			}
			return err // a dead rank's ErrProcFailed exit must not fail the run
		}
		return nil
	})
	if !w.RankFailed(1) {
		t.Fatal("rank 1 not recorded as failed")
	}
	if got := w.FailedRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", got)
	}
	if got := w.DeadNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", got)
	}
}

func TestDeathUnblocksCollective(t *testing.T) {
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	w := newTestWorld(t, 2, WithPlacement([]int{0, 4}), WithFaultPlan(plan))
	run(t, w, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Proc().Compute(2 * time.Millisecond)
			return c.Barrier() // materializes the death
		}
		if err := c.Barrier(); !errors.Is(err, ErrProcFailed) {
			t.Errorf("survivor barrier: %v, want ErrProcFailed", err)
		}
		return nil
	})
}

func TestPreDeathMessageStillDelivered(t *testing.T) {
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	w := newTestWorld(t, 2, WithPlacement([]int{0, 4}), WithFaultPlan(plan))
	run(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// The message was sent before the death; it must arrive even
			// though the sender is failed by the time we receive.
			c.Proc().Compute(5 * time.Millisecond)
			buf := make([]byte, 8)
			st, err := c.Recv(1, 7, buf)
			if err != nil {
				t.Errorf("recv of pre-death message: %v", err)
				return nil
			}
			if string(buf[:st.Size]) != "bye" {
				t.Errorf("payload = %q, want \"bye\"", buf[:st.Size])
			}
			// The next receive has no pending match and must fail.
			if _, err := c.Recv(1, 7, buf); !errors.Is(err, ErrProcFailed) {
				t.Errorf("second recv: %v, want ErrProcFailed", err)
			}
		case 1:
			if err := c.Send(0, 7, []byte("bye")); err != nil {
				return err
			}
			c.Proc().Compute(2 * time.Millisecond)
			return c.Barrier()
		}
		return nil
	})
}

func TestAgreePartialFailure(t *testing.T) {
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	w := newTestWorld(t, 4, WithPlacement([]int{0, 1, 2, 4}), WithFaultPlan(plan))
	var mu sync.Mutex
	results := make(map[int]uint32)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 3 {
			c.Proc().Compute(2 * time.Millisecond)
			_, err := c.Agree(0) // dies on entry, never contributes
			return err
		}
		flag := uint32(0b11)
		if c.Rank() == 1 {
			flag = 0b01
		}
		and, err := c.Agree(flag)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("rank %d Agree: %v, want ErrProcFailed", c.Rank(), err)
		}
		mu.Lock()
		results[c.Rank()] = and
		mu.Unlock()
		return nil
	})
	if len(results) != 3 {
		t.Fatalf("got %d survivor results, want 3", len(results))
	}
	for r, and := range results {
		if and != 0b01 {
			t.Errorf("rank %d agreed on %#b, want 0b01", r, and)
		}
	}
}

func TestRevokeWakesBlockedRecv(t *testing.T) {
	w := newTestWorld(t, 3)
	run(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Proc().Compute(time.Millisecond)
			if err := c.Revoke(); err != nil {
				return err
			}
			// Every later operation on the revoked comm fails locally.
			if err := c.Send(1, 0, []byte("x")); !errors.Is(err, ErrRevoked) {
				t.Errorf("send on revoked comm: %v, want ErrRevoked", err)
			}
		case 2:
			// Blocked on a sender that never sends; the revocation must
			// wake us even though no fault plan is installed.
			_, err := c.Recv(1, 0, make([]byte, 8))
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("blocked recv on revoked comm: %v, want ErrRevoked", err)
			}
		}
		return nil
	})
}

// TestIprobeFailsLikeProbe: Iprobe on a revoked communicator fails with
// ErrRevoked, as Probe does, and a loop of Iprobe on a source whose node
// dies ends with ErrProcFailed instead of polling forever.
func TestIprobeFailsLikeProbe(t *testing.T) {
	t.Run("revoked", func(t *testing.T) {
		w := newTestWorld(t, 2)
		run(t, w, func(c *Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			if err := c.Revoke(); err != nil {
				return err
			}
			if _, ok, err := c.Iprobe(1, 0); ok || !errors.Is(err, ErrRevoked) {
				t.Errorf("iprobe on revoked comm: ok=%v err=%v, want ErrRevoked", ok, err)
			}
			if _, err := c.Probe(1, 0); !errors.Is(err, ErrRevoked) {
				t.Errorf("probe on revoked comm: %v, want ErrRevoked", err)
			}
			return nil
		})
	})
	t.Run("failed-source", func(t *testing.T) {
		plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
		for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
			w := newTestWorld(t, 2, WithPlacement([]int{0, 4}), WithFaultPlan(plan), WithEngine(eng))
			run(t, w, func(c *Comm) error {
				if c.Rank() == 1 {
					c.Proc().Compute(2 * time.Millisecond)
					return c.Send(0, 0, []byte("late")) // materializes the death
				}
				for {
					_, ok, err := c.Iprobe(1, 0)
					if ok || err != nil {
						if !errors.Is(err, ErrProcFailed) {
							t.Errorf("%s: iprobe of a dead source: ok=%v err=%v, want ErrProcFailed", eng.Name(), ok, err)
						}
						return nil
					}
				}
			})
		}
	})
}

func TestRecoveryRevokeShrinkAgree(t *testing.T) {
	plan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 1, At: time.Millisecond}}}
	tel := telemetry.New()
	w := newTestWorld(t, 4, WithPlacement([]int{0, 1, 2, 4}), WithFaultPlan(plan), WithTelemetry(tel))
	var mu sync.Mutex
	groups := make(map[int][]int)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 3 {
			c.Proc().Compute(2 * time.Millisecond)
			return c.Barrier()
		}
		// Survivors: the barrier fails (ErrProcFailed at the detector,
		// ErrRevoked at members woken by the revocation), then everyone
		// funnels into Shrink and continues on the new communicator.
		if err := c.Barrier(); err != nil {
			if !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrRevoked) {
				t.Errorf("rank %d barrier: %v", c.Rank(), err)
			}
			if err := c.Revoke(); err != nil {
				return err
			}
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		mu.Lock()
		groups[c.Rank()] = nc.Group()
		mu.Unlock()
		if err := nc.Barrier(); err != nil {
			t.Errorf("rank %d barrier on shrunken comm: %v", c.Rank(), err)
		}
		and, err := nc.Agree(1)
		if err != nil || and != 1 {
			t.Errorf("rank %d Agree on shrunken comm: %d, %v", c.Rank(), and, err)
		}
		return nil
	})
	want := []int{0, 1, 2}
	for r, g := range groups {
		if len(g) != 3 || g[0] != want[0] || g[1] != want[1] || g[2] != want[2] {
			t.Errorf("rank %d shrunken group = %v, want %v", r, g, want)
		}
	}
	reg := tel.Registry()
	if n := reg.CounterTotal("mpimon_proc_failures_total"); n != 1 {
		t.Errorf("proc failures counter = %d, want 1", n)
	}
	if n := reg.CounterTotal("mpimon_comm_revocations_total"); n != 1 {
		t.Errorf("revocations counter = %d, want 1", n)
	}
	if n := reg.CounterTotal("mpimon_comm_shrinks_total"); n != 1 {
		t.Errorf("shrinks counter = %d, want 1", n)
	}
}

func TestRecvTimeout(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			// No one ever sends on tag 5: the deadline must fire.
			_, err := c.RecvTimeout(1, 5, make([]byte, 8), 50*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("RecvTimeout: %v, want ErrTimeout", err)
			}
			// A pending match is consumed without waiting out the deadline.
			buf := make([]byte, 8)
			st, err := c.RecvTimeout(1, 6, buf, 10*time.Second)
			if err != nil {
				t.Errorf("RecvTimeout with match: %v", err)
				return nil
			}
			if string(buf[:st.Size]) != "ok" {
				t.Errorf("payload = %q, want \"ok\"", buf[:st.Size])
			}
			return nil
		}
		return c.Send(0, 6, []byte("ok"))
	})
}

func TestFaultPlanDropsMessage(t *testing.T) {
	plan := &faults.Plan{Links: []faults.LinkRule{{SrcNode: -1, DstNode: -1, DropProb: 1}}}
	tel := telemetry.New()
	w := newTestWorld(t, 2, WithFaultPlan(plan), WithTelemetry(tel))
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte("lost"))
		}
		_, err := c.RecvTimeout(0, 0, make([]byte, 8), 100*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("recv of dropped message: %v, want ErrTimeout", err)
		}
		return nil
	})
	st := w.FaultInjector().Stats()
	if st.Drops == 0 {
		t.Fatal("injector recorded no drops")
	}
	if n := tel.Registry().CounterTotal("mpimon_fault_injections_total"); n == 0 {
		t.Fatal("fault injection counter not incremented")
	}
}

func TestFaultPlanDuplicatesMessage(t *testing.T) {
	plan := &faults.Plan{Links: []faults.LinkRule{{SrcNode: -1, DstNode: -1, DupProb: 1}}}
	w := newTestWorld(t, 2, WithFaultPlan(plan))
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, []byte("twice"))
		}
		a := make([]byte, 8)
		b := make([]byte, 8)
		sa, err := c.Recv(0, 3, a)
		if err != nil {
			return err
		}
		sb, err := c.Recv(0, 3, b) // the duplicate
		if err != nil {
			t.Errorf("recv of duplicate: %v", err)
			return nil
		}
		if !bytes.Equal(a[:sa.Size], b[:sb.Size]) || string(a[:sa.Size]) != "twice" {
			t.Errorf("payloads %q / %q, want both \"twice\"", a[:sa.Size], b[:sb.Size])
		}
		return nil
	})
	if st := w.FaultInjector().Stats(); st.Duplicates == 0 {
		t.Fatal("injector recorded no duplicates")
	}
}

func TestFaultPlanExtraLatency(t *testing.T) {
	base := func(plan *faults.Plan) time.Duration {
		var opts []Option
		if plan != nil {
			opts = append(opts, WithFaultPlan(plan))
		}
		w, err := NewWorld(testMachine(), 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var arrival time.Duration
		run(t, w, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]byte, 64))
			}
			if _, err := c.Recv(0, 0, make([]byte, 64)); err != nil {
				return err
			}
			arrival = c.Proc().Clock()
			return nil
		})
		return arrival
	}
	clean := base(nil)
	spike := 10 * time.Millisecond
	slow := base(&faults.Plan{Links: []faults.LinkRule{{SrcNode: -1, DstNode: -1, ExtraLatency: spike}}})
	if got := slow - clean; got != spike {
		t.Fatalf("latency fault added %v of virtual time, want %v", got, spike)
	}
}

func TestErrHandlerInvokedAndInherited(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		handled := 0
		c.SetErrHandler(func(_ *Comm, err error) error {
			handled++
			return err
		})
		child, err := c.Dup()
		if err != nil {
			return err
		}
		if err := child.Revoke(); err != nil {
			return err
		}
		if err := child.Send((c.Rank()+1)%2, 0, []byte("x")); !errors.Is(err, ErrRevoked) {
			t.Errorf("send on revoked child: %v, want ErrRevoked", err)
		}
		if handled == 0 {
			t.Error("inherited error handler never invoked")
		}
		var me *MPIError
		if err := child.Send((c.Rank()+1)%2, 0, []byte("x")); !errors.As(err, &me) {
			t.Error("error is not an *MPIError")
		}
		return nil
	})
}
