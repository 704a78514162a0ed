package reorder

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
)

func TestNewOptionsDefaultsAndOpts(t *testing.T) {
	o := newOptions()
	if def := (options{Flags: monitoring.AllComm}); *o != def {
		t.Fatalf("newOptions() = %+v, want %+v", *o, def)
	}
	o = newOptions(
		WithFlags(monitoring.P2POnly),
		WithMappingTimeout(time.Second),
		WithRetries(3),
		WithBackoff(time.Millisecond),
		WithoutIdentityFallback(),
	)
	want := options{
		Flags:              monitoring.P2POnly,
		MappingTimeout:     time.Second,
		MaxRetries:         3,
		RetryBackoff:       time.Millisecond,
		NoIdentityFallback: true,
	}
	if *o != want {
		t.Fatalf("newOptions(...) = %+v, want %+v", *o, want)
	}
}

// ringPhase gives the session a non-empty matrix to gather.
func ringPhase(c *mpi.Comm) error {
	np := c.Size()
	next, prev := (c.Rank()+1)%np, (c.Rank()-1+np)%np
	if err := c.Send(next, 0, make([]byte, 1000)); err != nil {
		return err
	}
	_, err := c.Recv(prev, 0, nil)
	return err
}

// runReorder executes MonitorAndReorder on a fresh world and returns the
// permutation (from rank 0's perspective) and the error rank 0 saw.
func runReorder(t *testing.T, opts []Opt, tel *telemetry.Telemetry) (k []int, reorderErr error) {
	t.Helper()
	const np = 4
	wopts := []mpi.Option{}
	if tel != nil {
		wopts = append(wopts, mpi.WithTelemetry(tel))
	}
	w, err := mpi.NewWorld(testMachine(2, 2), np, wopts...)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		opt, kk, err := MonitorAndReorder(env, c, ringPhase, opts...)
		if c.Rank() == 0 {
			k, reorderErr = kk, err
		}
		if err != nil {
			return nil // expected by the NoIdentityFallback tests
		}
		return opt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, reorderErr
}

func TestReorderRetryExhaustionFallsBackToIdentity(t *testing.T) {
	var calls atomic.Int32
	SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		calls.Add(1)
		return nil, errors.New("synthetic mapping failure")
	})
	tel := telemetry.New()
	opts := []Opt{WithRetries(2), WithBackoff(time.Millisecond)}
	k, err := runReorder(t, opts, tel)
	if err != nil {
		t.Fatalf("Reorder should degrade, not fail: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("mapping attempted %d times, want 3 (1 + 2 retries)", got)
	}
	for i, v := range k {
		if v != i {
			t.Fatalf("fallback permutation %v is not the identity", k)
		}
	}
	reg := tel.Registry()
	if n := reg.CounterTotal("mpimon_reorder_retries_total"); n != 2 {
		t.Errorf("retries counter = %d, want 2", n)
	}
	if n := reg.CounterTotal("mpimon_reorder_fallback_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
}

func TestReorderRetrySucceedsEventually(t *testing.T) {
	var calls atomic.Int32
	real := mapFn
	SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient failure")
		}
		return real(v, topo, place)
	})
	tel := telemetry.New()
	opts := []Opt{WithRetries(5)}
	k, err := runReorder(t, opts, tel)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("mapping attempted %d times, want 3", calls.Load())
	}
	if n := tel.Registry().CounterTotal("mpimon_reorder_fallback_total"); n != 0 {
		t.Errorf("fallback counter = %d, want 0 (mapping succeeded)", n)
	}
	seen := make(map[int]bool)
	for _, v := range k {
		seen[v] = true
	}
	if len(seen) != len(k) {
		t.Fatalf("k = %v is not a permutation", k)
	}
}

// TestReorderMappingTimeout pins the timeout to the virtual price of the
// mapping: the same gathered matrix fails with mpi.ErrTimeout one
// nanosecond below its modelled cost and maps at exactly that cost, on
// every run, with the retry and fallback counters exact.
func TestReorderMappingTimeout(t *testing.T) {
	// The 4-rank ring gathers 4 rows of one entry each, mapped on the
	// two-level test machine.
	ring := sparsemat.New(4)
	for i := range ring.Rows {
		ring.Rows[i] = sparsemat.Row{Dst: []int32{int32(i+1) % 4}, Cnt: []uint64{1}, Byt: []uint64{1000}}
	}
	cost := mappingCost(ring, 2)
	if want := time.Duration(4+4) * 2 * mappingNsPerVisit; cost != want {
		t.Fatalf("mappingCost = %v, want %v", cost, want)
	}

	tel := telemetry.New()
	_, err := runReorder(t, []Opt{WithMappingTimeout(cost - 1), WithoutIdentityFallback()}, tel)
	if !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("Reorder with a mapping priced above the timeout: %v, want mpi.ErrTimeout", err)
	}

	k, err := runReorder(t, []Opt{WithMappingTimeout(cost), WithoutIdentityFallback()}, tel)
	if err != nil || len(k) != 4 {
		t.Fatalf("Reorder with a mapping priced at the timeout: k=%v err=%v, want success", k, err)
	}

	// Starved with retries: every attempt times out, then identity.
	k, err = runReorder(t, []Opt{WithMappingTimeout(time.Nanosecond), WithRetries(2)}, tel)
	if err != nil {
		t.Fatalf("starved Reorder should degrade, not fail: %v", err)
	}
	for i, v := range k {
		if v != i {
			t.Fatalf("fallback permutation %v is not the identity", k)
		}
	}
	reg := tel.Registry()
	if n := reg.CounterTotal("mpimon_reorder_retries_total"); n != 2 {
		t.Errorf("retries counter = %d, want 2", n)
	}
	if n := reg.CounterTotal("mpimon_reorder_fallback_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
}

func TestReorderNoFallbackPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		return nil, fmt.Errorf("mapping: %w", boom)
	})
	opts := []Opt{WithoutIdentityFallback()}
	_, err := runReorder(t, opts, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Reorder without fallback: %v, want the mapping error", err)
	}
}

func TestReorderBackoffChargesVirtualTime(t *testing.T) {
	SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		return nil, errors.New("always fails")
	})
	// The exact difference needs the event engine's deterministic clock:
	// under the goroutine engine the ring's NIC reservation order follows
	// the host scheduler and moves either total by a microsecond.
	elapsed := func(backoff time.Duration) time.Duration {
		const np = 4
		w, err := mpi.NewWorld(testMachine(2, 2), np, mpi.WithEngine(mpi.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		opts := []Opt{WithRetries(3), WithBackoff(backoff)}
		err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			_, _, err = MonitorAndReorder(env, c, ringPhase, opts...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	fast := elapsed(0)
	slow := elapsed(time.Millisecond)
	// 3 retries with base 1 ms: 1 + 2 + 4 = 7 ms of virtual backoff.
	if got := slow - fast; got != 7*time.Millisecond {
		t.Fatalf("backoff added %v of virtual time, want 7ms", got)
	}
}
