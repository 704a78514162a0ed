package monitoring

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

func testMachine() *netsim.Machine {
	return &netsim.Machine{
		Topo: topology.MustNew(2, 2, 2),
		Links: []netsim.LinkParams{
			{Latency: time.Microsecond, Bandwidth: 1e9},
			{Latency: 300 * time.Nanosecond, Bandwidth: 2e9},
			{Latency: 100 * time.Nanosecond, Bandwidth: 4e9},
			{Latency: 50 * time.Nanosecond, Bandwidth: 8e9},
		},
		SendOverhead: 100 * time.Nanosecond,
		RecvOverhead: 100 * time.Nanosecond,
		EagerLimit:   4096,
		Contention:   false,
	}
}

func run(t *testing.T, np int, fn func(c *mpi.Comm) error) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(testMachine(), np)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunWithTimeout(30*time.Second, fn); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSessionRecordsOnlyWhileActive(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()

		s, err := env.Start(c)
		if err != nil {
			return err
		}
		exchange := func(n int) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]byte, n))
			}
			_, err := c.Recv(0, 0, nil)
			return err
		}
		if err := exchange(100); err != nil { // watched
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := exchange(1000); err != nil { // not watched
			return err
		}
		if err := s.Continue(); err != nil {
			return err
		}
		if err := exchange(10); err != nil { // watched again
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		_, bytes, err := s.Data(P2POnly)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if bytes[1] != 110 {
				return fmt.Errorf("session saw %d bytes, want 110 (100 + 10, not the suspended 1000)", bytes[1])
			}
		}
		return s.Free()
	})
}

func TestStateMachineErrors(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if _, _, err := s.Data(AllComm); !errors.Is(err, ErrSessionNotSuspended) {
			return fmt.Errorf("Data on active session: %v, want ErrSessionNotSuspended", err)
		}
		if err := s.Reset(); !errors.Is(err, ErrSessionNotSuspended) {
			return fmt.Errorf("Reset on active session: %v", err)
		}
		if err := s.Free(); !errors.Is(err, ErrSessionNotSuspended) {
			return fmt.Errorf("Free on active session: %v", err)
		}
		if err := s.Continue(); !errors.Is(err, ErrMultipleCall) {
			return fmt.Errorf("Continue on active session: %v", err)
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := s.Suspend(); !errors.Is(err, ErrMultipleCall) {
			return fmt.Errorf("double Suspend: %v", err)
		}
		if err := s.Free(); err != nil {
			return err
		}
		if err := s.Suspend(); !errors.Is(err, ErrInvalidMsid) {
			return fmt.Errorf("Suspend on freed session: %v", err)
		}
		if err := s.Free(); !errors.Is(err, ErrInvalidMsid) {
			return fmt.Errorf("double Free: %v", err)
		}
		return env.Finalize()
	})
}

func TestFinalizeWithActiveSession(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := env.Finalize(); !errors.Is(err, ErrSessionStillActive) {
			return fmt.Errorf("Finalize with active session: %v", err)
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := env.Finalize(); err != nil {
			return err
		}
		if _, err := env.Start(c); !errors.Is(err, ErrMissingInit) {
			return fmt.Errorf("Start after Finalize: %v", err)
		}
		if err := env.Finalize(); !errors.Is(err, ErrMissingInit) {
			return fmt.Errorf("double Finalize: %v", err)
		}
		return nil
	})
}

func TestOverlappingSessionsAreIndependent(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		exchange := func(n int) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]byte, n))
			}
			_, err := c.Recv(0, 0, nil)
			return err
		}
		a, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := exchange(5); err != nil {
			return err
		}
		b, err := env.Start(c) // overlaps a
		if err != nil {
			return err
		}
		if err := exchange(7); err != nil {
			return err
		}
		if err := a.Suspend(); err != nil {
			return err
		}
		if err := exchange(11); err != nil {
			return err
		}
		if err := b.Suspend(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			_, ab, err := a.Data(P2POnly)
			if err != nil {
				return err
			}
			_, bb, err := b.Data(P2POnly)
			if err != nil {
				return err
			}
			if ab[1] != 12 {
				return fmt.Errorf("session a saw %d bytes, want 12 (5+7)", ab[1])
			}
			if bb[1] != 18 {
				return fmt.Errorf("session b saw %d bytes, want 18 (7+11)", bb[1])
			}
		}
		if err := a.Free(); err != nil {
			return err
		}
		return b.Free()
	})
}

func TestSubcommSessionSeesWorldTraffic(t *testing.T) {
	// The paper's example: a session on the even/odd split records the
	// exchanges between world ranks 0 and 2 even when they communicate
	// through MPI_COMM_WORLD.
	run(t, 4, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		s, err := env.Start(sub)
		if err != nil {
			return err
		}
		// World ranks 0->2 on COMM_WORLD (both even: members of sub).
		if c.Rank() == 0 {
			if err := c.Send(2, 0, make([]byte, 64)); err != nil {
				return err
			}
			// 0 -> 1 crosses communicators: 1 is odd, not a member.
			if err := c.Send(1, 0, make([]byte, 32)); err != nil {
				return err
			}
		}
		if c.Rank() == 2 {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			_, bytes, err := s.Data(P2POnly)
			if err != nil {
				return err
			}
			// sub rank of world rank 2 is 1.
			if bytes[1] != 64 {
				return fmt.Errorf("session missed cross-communicator traffic: %v", bytes)
			}
			var total uint64
			for _, b := range bytes {
				total += b
			}
			if total != 64 {
				return fmt.Errorf("session recorded non-member traffic: %v", bytes)
			}
		}
		return s.Free()
	})
}

func TestFlagsSeparateClasses(t *testing.T) {
	run(t, 4, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		// One user p2p message and one broadcast.
		if c.Rank() == 0 {
			if err := c.Send(3, 0, make([]byte, 100)); err != nil {
				return err
			}
		}
		if c.Rank() == 3 {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		if err := c.Bcast(make([]byte, 1000), 0); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		p2pC, p2pB, err := s.Data(P2POnly)
		if err != nil {
			return err
		}
		collC, collB, err := s.Data(CollOnly)
		if err != nil {
			return err
		}
		allC, allB, err := s.Data(AllComm)
		if err != nil {
			return err
		}
		var sp2p, scoll, sall, cp2p, ccoll, call uint64
		for i := range p2pB {
			sp2p += p2pB[i]
			scoll += collB[i]
			sall += allB[i]
			cp2p += p2pC[i]
			ccoll += collC[i]
			call += allC[i]
		}
		if c.Rank() == 0 && sp2p != 100 {
			return fmt.Errorf("p2p bytes = %d, want 100", sp2p)
		}
		if c.Rank() != 0 && sp2p != 0 {
			return fmt.Errorf("rank %d p2p bytes = %d, want 0", c.Rank(), sp2p)
		}
		if sall != sp2p+scoll || call != cp2p+ccoll {
			return fmt.Errorf("AllComm is not the union: %d != %d+%d", sall, sp2p, scoll)
		}
		if _, _, err := s.Data(0); !errors.Is(err, ErrInvalidFlags) {
			return fmt.Errorf("empty flags: %v", err)
		}
		return s.Free()
	})
}

func TestAllgatherAndRootgatherMatrices(t *testing.T) {
	const np = 4
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		// Ring: rank r sends (r+1)*10 bytes to (r+1)%np.
		next := (c.Rank() + 1) % np
		prev := (c.Rank() - 1 + np) % np
		if err := c.Send(next, 0, make([]byte, (c.Rank()+1)*10)); err != nil {
			return err
		}
		if _, err := c.Recv(prev, 0, nil); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		matC, matB, err := s.AllgatherData(P2POnly)
		if err != nil {
			return err
		}
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				wantB, wantC := uint64(0), uint64(0)
				if j == (i+1)%np {
					wantB, wantC = uint64((i+1)*10), 1
				}
				if matB[i*np+j] != wantB || matC[i*np+j] != wantC {
					return fmt.Errorf("matrix[%d][%d] = %d/%d, want %d/%d",
						i, j, matC[i*np+j], matB[i*np+j], wantC, wantB)
				}
			}
		}
		// Rootgather must agree at root and return nil elsewhere.
		rc, rb, err := s.RootgatherData(2, P2POnly)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for i := range matB {
				if rb[i] != matB[i] || rc[i] != matC[i] {
					return errors.New("rootgather disagrees with allgather")
				}
			}
		} else if rb != nil || rc != nil {
			return errors.New("non-root received matrices")
		}
		if _, _, err := s.RootgatherData(9, P2POnly); !errors.Is(err, ErrInvalidRoot) {
			return fmt.Errorf("bad root: %v", err)
		}
		// The gathers themselves must not have polluted the data.
		_, bytes, err := s.Data(AllComm)
		if err != nil {
			return err
		}
		var total uint64
		for _, b := range bytes {
			total += b
		}
		if total != uint64((c.Rank()+1)*10) {
			return fmt.Errorf("gather traffic leaked into session: %d bytes", total)
		}
		return s.Free()
	})
}

func TestDataAccessDoesNotPolluteOverlappingActiveSession(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		outer, err := env.Start(c)
		if err != nil {
			return err
		}
		inner, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := inner.Suspend(); err != nil {
			return err
		}
		// Gathering inner's data uses collectives; outer is active but
		// must not record them.
		if _, _, err := inner.AllgatherData(AllComm); err != nil {
			return err
		}
		if err := outer.Suspend(); err != nil {
			return err
		}
		_, bytes, err := outer.Data(AllComm)
		if err != nil {
			return err
		}
		for _, b := range bytes {
			if b != 0 {
				return fmt.Errorf("outer session recorded library traffic: %v", bytes)
			}
		}
		if err := inner.Free(); err != nil {
			return err
		}
		return outer.Free()
	})
}

func TestReset(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 9)); err != nil {
				return err
			}
		} else if _, err := c.Recv(0, 0, nil); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := s.Reset(); err != nil {
			return err
		}
		_, bytes, err := s.Data(AllComm)
		if err != nil {
			return err
		}
		for _, b := range bytes {
			if b != 0 {
				return fmt.Errorf("reset left data: %v", bytes)
			}
		}
		return s.Free()
	})
}

func TestGetInfo(t *testing.T) {
	run(t, 4, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		s, err := env.Start(sub)
		if err != nil {
			return err
		}
		info, err := s.GetInfo()
		if err != nil {
			return err
		}
		if info.ArraySize != 2 {
			return fmt.Errorf("ArraySize = %d, want 2", info.ArraySize)
		}
		if info.Provided != ThreadMultiple {
			return fmt.Errorf("Provided = %d, want %d", info.Provided, ThreadMultiple)
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		return s.Free()
	})
}

func TestSessionOverflow(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		var all []*Session
		for i := 0; i < MaxSessions; i++ {
			s, err := env.Start(c)
			if err != nil {
				return fmt.Errorf("session %d: %v", i, err)
			}
			all = append(all, s)
		}
		if _, err := env.Start(c); !errors.Is(err, ErrSessionOverflow) {
			return fmt.Errorf("overflow: %v", err)
		}
		// Freeing one makes room again.
		if err := all[0].Suspend(); err != nil {
			return err
		}
		if err := all[0].Free(); err != nil {
			return err
		}
		if _, err := env.Start(c); err != nil {
			return fmt.Errorf("start after free: %v", err)
		}
		for _, s := range all[1:] {
			if err := s.Suspend(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestMsidLookup(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		a, _ := env.Start(c)
		b, _ := env.Start(c)
		if a.ID() == b.ID() {
			return errors.New("sessions share an msid")
		}
		got, err := env.Get(b.ID())
		if err != nil || got != b {
			return fmt.Errorf("Get(%d) = %v, %v", b.ID(), got, err)
		}
		if _, err := env.Get(999); !errors.Is(err, ErrInvalidMsid) {
			return fmt.Errorf("bad msid: %v", err)
		}
		if n := len(env.Sessions()); n != 2 {
			return fmt.Errorf("Sessions() has %d entries, want 2", n)
		}
		a.Suspend()
		b.Suspend()
		return nil
	})
}

func TestFlushFiles(t *testing.T) {
	dir := t.TempDir()
	const np = 2
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		base := filepath.Join(dir, "trace")
		if err := s.Flush(base, AllComm); err != nil {
			return err
		}
		if err := s.RootFlush(0, filepath.Join(dir, "barrier"), P2POnly|CollOnly); err != nil {
			return err
		}
		return s.Free()
	})
	for r := 0; r < np; r++ {
		name := filepath.Join(dir, fmt.Sprintf("trace.%d.prof", r))
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("Flush did not create %s: %v", name, err)
		}
	}
	for _, suffix := range []string{"counts", "sizes"} {
		name := filepath.Join(dir, fmt.Sprintf("barrier_%s.0.prof", suffix))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("RootFlush did not create %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

func TestBarrierDecompositionVisible(t *testing.T) {
	// Listing 2 of the paper: monitoring a barrier exposes its
	// point-to-point decomposition.
	const np = 4
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		counts, bytes, err := s.Data(CollOnly)
		if err != nil {
			return err
		}
		var msgs, bts uint64
		for i := range counts {
			msgs += counts[i]
			bts += bytes[i]
		}
		// Dissemination over 4 ranks: each rank sends log2(4)=2 messages.
		if msgs != 2 {
			return fmt.Errorf("rank %d sent %d barrier messages, want 2", c.Rank(), msgs)
		}
		if bts != 0 {
			return fmt.Errorf("barrier messages carried %d bytes, want 0", bts)
		}
		return s.Free()
	})
}

// TestThreadSafety hammers a session's state machine and data accessors
// from concurrent goroutines within one rank: the paper requires all
// library functions to be thread-safe. Operations may fail with state
// errors (ErrMultipleCall etc.) — the invariant is the absence of crashes,
// races and corrupted state, checked under -race.
func TestThreadSafety(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		ops := []func(){
			func() { _ = s.Suspend() },
			func() { _ = s.Continue() },
			func() { _ = s.Reset() },
			func() { _, _, _ = s.Data(AllComm) },
			func() { _, _ = s.GetInfo() },
			func() { _ = s.State() },
			func() { _, _ = env.Get(s.ID()) },
			func() { _ = env.Sessions() },
		}
		for _, op := range ops {
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						f()
					}
				}
			}(op)
		}
		// Meanwhile, the "application" keeps sending monitored traffic.
		for i := 0; i < 500; i++ {
			if err := c.Send(0, 0, make([]byte, 16)); err != nil {
				return err
			}
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		close(done)
		wg.Wait()
		// Leave the session in a known state for Finalize.
		if s.State() == Active {
			if err := s.Suspend(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestErrorCodesAndStrings(t *testing.T) {
	// The numeric codes follow the paper's MPI_M_* constants, in order.
	for i, code := range []int{Success, CodeInternalFail, CodeMPITFail, CodeMissingInit,
		CodeSessionStillActive, CodeSessionNotSuspended, CodeInvalidMsid, CodeSessionOverflow,
		CodeMultipleCall, CodeInvalidRoot, CodeInvalidFlags} {
		if code != i {
			t.Errorf("code #%d = %d", i, code)
		}
	}
	for s, want := range map[State]string{Active: "active", Suspended: "suspended", Freed: "freed", State(9): "State(9)"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", int(s), s.String())
		}
	}
	for f, want := range map[Flags]string{
		AllComm: "all", P2POnly: "p2p", CollOnly: "coll", OscOnly: "osc",
		P2POnly | OscOnly: "p2p|osc", 0: "none",
	} {
		if got := flagNames(f); got != want {
			t.Errorf("flagNames(%d) = %q, want %q", int(f), got, want)
		}
	}
}

func TestSessionAccessors(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		if env.Proc() != c.Proc() {
			return errors.New("Env.Proc wrong")
		}
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if s.Comm() != c {
			return errors.New("Session.Comm wrong")
		}
		return s.Suspend()
	})
}

func TestFlushBadPath(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		err = s.Flush("/nonexistent-dir-xyz/trace", AllComm)
		if !errors.Is(err, ErrInternalFail) {
			return fmt.Errorf("flush into a missing directory: %v, want ErrInternalFail", err)
		}
		return s.Free()
	})
}

func TestWriteJSONRoundTrip(t *testing.T) {
	const np = 3
	var doc bytes.Buffer
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(2, 0, make([]byte, 77)); err != nil {
				return err
			}
		}
		if c.Rank() == 2 {
			if _, err := c.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := s.WriteJSON(&doc, AllComm); err != nil {
			return err
		}
		return s.Free()
	})
	m, err := ReadMatrixJSON(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if cnt, byt := m.At(0, 2); m.N != np || cnt != 1 || byt != 77 || m.NNZ() != 1 {
		t.Fatalf("JSON round trip wrong: n=%d rows=%v", m.N, m.Rows)
	}
	if _, err := ReadMatrixJSON(strings.NewReader(`{"size":2,"counts":[1],"bytes":[1]}`)); err == nil {
		t.Fatal("malformed document should fail")
	}
}

// TestSteadyEpochAllocs: a steady monitoring epoch — Reset, Continue, a
// round trip with each of three peers, Suspend — allocates nothing without
// a row exporter (the pvar reads append into the session's cells), and
// with one only the exported row's three slices. (Measured under the event
// engine, where rank 0's round trips run the peers in between on the same
// thread.)
func TestSteadyEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so the round trips allocate")
	}
	const stop = 1
	w, err := mpi.NewWorld(testMachine(), 4, mpi.WithEngine(mpi.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			for {
				st, err := c.Recv(0, mpi.AnyTag, nil)
				if err != nil || st.Tag == stop {
					return err
				}
				if err := c.SendN(0, 0, 8); err != nil {
					return err
				}
			}
		}
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		var epochErr error
		epoch := func() {
			if epochErr != nil {
				return
			}
			epochErr = s.Reset()
			if epochErr == nil {
				epochErr = s.Continue()
			}
			for peer := 1; peer < 4 && epochErr == nil; peer++ {
				if epochErr = c.SendN(peer, 0, 100*peer); epochErr == nil {
					_, epochErr = c.Recv(peer, 0, nil)
				}
			}
			if epochErr == nil {
				epochErr = s.Suspend()
			}
		}
		epoch() // grows the buffers and tables the later epochs reuse
		if n := testing.AllocsPerRun(100, epoch); n != 0 {
			t.Errorf("%v allocations per epoch without an exporter, want 0", n)
		}
		var last sparsemat.Row
		s.SetRowExporter(func(_ uint64, _, _ int, row sparsemat.Row) error {
			last = row
			return nil
		})
		epoch()
		if n := testing.AllocsPerRun(100, epoch); n > 3 {
			t.Errorf("%v allocations per epoch with an exporter, want <= 3", n)
		}
		if epochErr != nil {
			return epochErr
		}
		if want := []int32{1, 2, 3}; !slices.Equal(last.Dst, want) || !slices.Equal(last.Byt, []uint64{100, 200, 300}) {
			t.Errorf("exported row %+v, want destinations %v with 100, 200, 300 bytes", last, want)
		}
		for peer := 1; peer < 4; peer++ {
			if err := c.SendN(peer, stop, 0); err != nil {
				return err
			}
		}
		return env.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}
