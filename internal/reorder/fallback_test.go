package reorder

import (
	"errors"
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
	o = newOptions(WithFlags(monitoring.P2POnly), WithMappingTimeout(time.Second))
	if want := (options{Flags: monitoring.P2POnly, MappingTimeout: time.Second}); *o != want {
		t.Fatalf("newOptions(...) = %+v, want %+v", *o, want)
	}
	if o = newOptions(WithFlags(0)); o.Flags != monitoring.AllComm {
		t.Fatalf("newOptions(WithFlags(0)).Flags = %v, want AllComm", o.Flags)
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
// permutation from rank 0's perspective.
func runReorder(t *testing.T, opts []Opt, tel *telemetry.Telemetry) []int {
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
	var k []int
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		opt, kk, err := MonitorAndReorder(env, c, ringPhase, opts...)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			k = kk
		}
		return opt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func isIdentity(k []int) bool {
	for i, v := range k {
		if v != i {
			return false
		}
	}
	return true
}

// TestReorderRetryExhaustionFallsBackToIdentity: a failed mapping is tried
// once, then Reorder degrades to the identity permutation and counts the
// fallback.
func TestReorderRetryExhaustionFallsBackToIdentity(t *testing.T) {
	var calls atomic.Int32
	SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		calls.Add(1)
		return nil, errors.New("synthetic mapping failure")
	})
	tel := telemetry.New()
	k := runReorder(t, nil, tel)
	if got := calls.Load(); got != 1 {
		t.Fatalf("mapping attempted %d times, want 1", got)
	}
	if len(k) != 4 || !isIdentity(k) {
		t.Fatalf("fallback permutation %v is not the identity", k)
	}
	if n := tel.Registry().CounterTotal("mpimon_reorder_fallback_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
}

// mapOnRoot calls Map on rank 0 of a fresh 4-rank world and returns its
// error and the virtual time it charged.
func mapOnRoot(t *testing.T, m *sparsemat.Matrix, timeout time.Duration) (time.Duration, error) {
	t.Helper()
	w, err := mpi.NewWorld(testMachine(2, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	var charged time.Duration
	var mapErr error
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		t0 := c.Proc().Clock()
		_, mapErr = Map(c, m, timeout)
		charged = c.Proc().Clock() - t0
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return charged, mapErr
}

// TestReorderMappingTimeout pins the timeout to the virtual price of the
// mapping: the same gathered matrix fails with mpi.ErrTimeout, charged the
// timeout, one nanosecond below its modelled cost and maps, charged the
// cost, at exactly that cost, on every run. Reorder turns the timeout into
// the identity permutation and one count of the fallback counter.
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

	charged, err := mapOnRoot(t, ring, cost-1)
	if !errors.Is(err, mpi.ErrTimeout) || charged != cost-1 {
		t.Fatalf("Map priced above the timeout: charged %v, err %v; want %v and mpi.ErrTimeout", charged, err, cost-1)
	}
	charged, err = mapOnRoot(t, ring, cost)
	if err != nil || charged != cost {
		t.Fatalf("Map priced at the timeout: charged %v, err %v; want %v and success", charged, err, cost)
	}

	tel := telemetry.New()
	if k := runReorder(t, []Opt{WithMappingTimeout(cost)}, tel); len(k) != 4 {
		t.Fatalf("Reorder with a mapping priced at the timeout: k=%v", k)
	}
	if n := tel.Registry().CounterTotal("mpimon_reorder_fallback_total"); n != 0 {
		t.Fatalf("fallback counter = %d after a mapping within the timeout, want 0", n)
	}
	k := runReorder(t, []Opt{WithMappingTimeout(cost - 1)}, tel)
	if !isIdentity(k) {
		t.Fatalf("starved Reorder returned %v, want the identity", k)
	}
	if n := tel.Registry().CounterTotal("mpimon_reorder_fallback_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
}
