package monitoring

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
)

// ringTraffic sends one message of sz bytes around the ring so every rank
// has exactly one destination with traffic.
func ringTraffic(c *mpi.Comm, sz int) error {
	np := c.Size()
	next, prev := (c.Rank()+1)%np, (c.Rank()-1+np)%np
	if err := c.Send(next, 0, make([]byte, sz)); err != nil {
		return err
	}
	_, err := c.Recv(prev, 0, nil)
	return err
}

// startSuspended starts a session, runs the traffic and suspends it.
func startSuspended(c *mpi.Comm, env *Env, traffic func() error) (*Session, error) {
	s, err := env.Start(c)
	if err != nil {
		return nil, err
	}
	if err := traffic(); err != nil {
		return nil, err
	}
	return s, s.Suspend()
}

// TestDataRejectsUnknownFlagBits pins satellite contract #1: any flags
// outside AllComm fail with ErrInvalidFlags across the data surface, and
// so does an empty selection.
func TestDataRejectsUnknownFlagBits(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error { return ringTraffic(c, 100) })
		if err != nil {
			return err
		}
		defer s.Free()
		bad := []Flags{AllComm | 1<<5, 1 << 7, AllComm | -8, 0}
		for _, f := range bad {
			if _, _, err := s.Data(f); !errors.Is(err, ErrInvalidFlags) {
				return fmt.Errorf("Data(%#x) = %v, want ErrInvalidFlags", int(f), err)
			}
			if _, err := s.SparseData(f); !errors.Is(err, ErrInvalidFlags) {
				return fmt.Errorf("SparseData(%#x) = %v, want ErrInvalidFlags", int(f), err)
			}
		}
		// The gathers funnel through SparseData, so the rejection is local
		// and symmetric: no rank blocks in a half-entered collective.
		if _, err := s.AllgatherSparse(AllComm | 1<<6); !errors.Is(err, ErrInvalidFlags) {
			return fmt.Errorf("AllgatherSparse with unknown bits: %v, want ErrInvalidFlags", err)
		}
		if _, _, err := s.RootgatherData(0, AllComm|1<<6); !errors.Is(err, ErrInvalidFlags) {
			return fmt.Errorf("RootgatherData with unknown bits: %v, want ErrInvalidFlags", err)
		}
		if err := s.Flush("ignored", 1<<9); !errors.Is(err, ErrInvalidFlags) {
			return fmt.Errorf("Flush with unknown bits: %v, want ErrInvalidFlags", err)
		}
		return nil
	})
}

// TestSessionsIsLiveOnly pins satellite contract #2: Sessions returns the
// live sessions in ascending id order and its cost follows the live count,
// not the identifiers ever issued — freed sessions leave no trace.
func TestSessionsIsLiveOnly(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		// Churn: create and free many sessions so nextMsid far exceeds the
		// live count.
		for i := 0; i < 50; i++ {
			s, err := env.Start(c)
			if err != nil {
				return err
			}
			if err := s.Suspend(); err != nil {
				return err
			}
			if err := s.Free(); err != nil {
				return err
			}
		}
		var keep []*Session
		for i := 0; i < 3; i++ {
			s, err := env.Start(c)
			if err != nil {
				return err
			}
			keep = append(keep, s)
		}
		// Free the middle one so the live set is non-contiguous.
		if err := keep[1].Suspend(); err != nil {
			return err
		}
		if err := keep[1].Free(); err != nil {
			return err
		}
		got := env.Sessions()
		if len(got) != 2 {
			return fmt.Errorf("Sessions() returned %d sessions, want 2", len(got))
		}
		if got[0] != keep[0] || got[1] != keep[2] {
			return fmt.Errorf("Sessions() = ids %v/%v, want %v/%v", got[0].ID(), got[1].ID(), keep[0].ID(), keep[2].ID())
		}
		if got[0].ID() >= got[1].ID() {
			return fmt.Errorf("Sessions() not in ascending id order: %v, %v", got[0].ID(), got[1].ID())
		}
		for _, s := range got {
			if err := s.Suspend(); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestSparseDataMatchesDense pins the equivalence of the two local read
// paths: Data's dense arrays and SparseData's row densified must be equal.
func TestSparseDataMatchesDense(t *testing.T) {
	run(t, 4, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error {
			if err := ringTraffic(c, 100+10*c.Rank()); err != nil {
				return err
			}
			return c.Barrier() // adds collective-class traffic
		})
		if err != nil {
			return err
		}
		defer s.Free()
		for _, f := range []Flags{AllComm, P2POnly, CollOnly, P2POnly | CollOnly} {
			counts, bts, err := s.Data(f)
			if err != nil {
				return err
			}
			row, err := s.SparseData(f)
			if err != nil {
				return err
			}
			if err := row.Validate(c.Size()); err != nil {
				return err
			}
			dc := make([]uint64, c.Size())
			db := make([]uint64, c.Size())
			for k, d := range row.Dst {
				dc[d], db[d] = row.Cnt[k], row.Byt[k]
			}
			for j := range counts {
				if counts[j] != dc[j] || bts[j] != db[j] {
					return fmt.Errorf("rank %d flags %#x dst %d: dense (%d,%d) != sparse (%d,%d)",
						c.Rank(), int(f), j, counts[j], bts[j], dc[j], db[j])
				}
			}
		}
		return nil
	})
}

// TestGathersBitIdentical pins the dense-compat acceptance criterion: the
// dense AllgatherData/RootgatherData results are exactly the densified
// sparse gathers, and every gathered row equals its owner's local data.
func TestGathersBitIdentical(t *testing.T) {
	const np = 5
	var mu sync.Mutex
	local := make([][]uint64, np) // rank -> local dense bytes row
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error { return ringTraffic(c, 1000+100*c.Rank()) })
		if err != nil {
			return err
		}
		defer s.Free()
		_, myBytes, err := s.Data(AllComm)
		if err != nil {
			return err
		}
		mu.Lock()
		local[c.Rank()] = myBytes
		mu.Unlock()

		sm, err := s.AllgatherSparse(AllComm)
		if err != nil {
			return err
		}
		denseC, denseB, err := s.AllgatherData(AllComm)
		if err != nil {
			return err
		}
		smC, smB := sm.Dense()
		if !equalU64(denseC, smC) || !equalU64(denseB, smB) {
			return fmt.Errorf("rank %d: AllgatherData differs from densified AllgatherSparse", c.Rank())
		}
		rc, rb, err := s.RootgatherData(1, AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if !equalU64(rc, denseC) || !equalU64(rb, denseB) {
				return fmt.Errorf("root: RootgatherData differs from AllgatherData")
			}
		} else if rc != nil || rb != nil {
			return fmt.Errorf("rank %d: non-root RootgatherData returned data", c.Rank())
		}
		return nil
	})
	// Every gathered row must be the owner's local view (checked against
	// rank 0's copy of the allgathered matrix via local rows).
	for r := 0; r < np; r++ {
		if local[r] == nil {
			t.Fatalf("rank %d recorded no local data", r)
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWriteJSONCrossoverAndReadBack checks both JSON shapes round-trip:
// a dense world (every pair talks → dense doc) and a sparse ring (sparse
// rows doc), each read back identical to the gathered dense matrices.
func TestWriteJSONCrossoverAndReadBack(t *testing.T) {
	const np = 8
	var buf bytes.Buffer
	var wantC, wantB []uint64
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error { return ringTraffic(c, 512) })
		if err != nil {
			return err
		}
		defer s.Free()
		mc, mb, err := s.RootgatherData(0, AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			wantC, wantB = mc, mb
		}
		return s.WriteJSON(&buf, AllComm)
	})
	// A ring on 8 ranks has nnz = 8 (plus possible collective traffic from
	// none here): 3·8 < 64, so the document must be sparse.
	if !bytes.Contains(buf.Bytes(), []byte(`"sparse":true`)) {
		t.Fatalf("ring matrix JSON is not sparse: %s", buf.String())
	}
	sm, err := ReadMatrixJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotB := sm.Dense()
	if sm.N != np || !equalU64(gotC, wantC) || !equalU64(gotB, wantB) {
		t.Fatalf("sparse JSON round-trip mismatch (n=%d)", sm.N)
	}

	// Dense crossover: a tiny world where everybody talks to everybody.
	buf.Reset()
	run(t, 3, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error {
			for r := 0; r < c.Size(); r++ {
				if r == c.Rank() {
					continue
				}
				if err := c.SendN(r, 3, 64); err != nil {
					return err
				}
			}
			for r := 0; r < c.Size()-1; r++ {
				if _, err := c.Recv(mpi.AnySource, 3, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		defer s.Free()
		return s.WriteJSON(&buf, AllComm)
	})
	if bytes.Contains(buf.Bytes(), []byte(`"sparse":true`)) {
		t.Fatalf("all-pairs matrix JSON should be dense: %s", buf.String())
	}
	if sm, err := ReadMatrixJSON(bytes.NewReader(buf.Bytes())); err != nil || sm.N != 3 || sm.NNZ() != 6 {
		t.Fatalf("dense JSON round-trip: %+v err=%v", sm, err)
	}
}

// FuzzReadMatrixJSON drives the one matrix-document decoder,
// sparsemat.JSONBody.Matrix, through ReadMatrixJSON. An accepted document
// gives N ≥ 0 and N rows that each pass Row.Validate, and encoding the
// matrix in either format and decoding it again gives the same count and
// byte matrices (and, sparse, the same entries: the dense format has no
// cell for an entry of zero count and zero bytes). The checked-in corpus holds
// negative sizes (dense, sparse, and one whose square is the dense arrays'
// length), a size whose square overflows int, a sparse row with unsorted
// and one with repeated destinations, and a dense and a sparse document
// WriteJSON wrote. A document declaring more than 1024 (and at most 2³¹)
// ranks is skipped: reading it allocates its N rows and the dense
// re-encoding N² cells, as they should.
func FuzzReadMatrixJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		var head struct {
			Size int `json:"size"`
		}
		if json.NewDecoder(bytes.NewReader(doc)).Decode(&head) == nil && head.Size > 1024 && int64(head.Size) <= 1<<31 {
			t.Skip()
		}
		m, err := ReadMatrixJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if m.N < 0 || len(m.Rows) != m.N {
			t.Fatalf("ReadMatrixJSON(%q) = %d rows for N = %d", doc, len(m.Rows), m.N)
		}
		for i, r := range m.Rows {
			if err := r.Validate(m.N); err != nil {
				t.Fatalf("ReadMatrixJSON(%q): row %d: %v", doc, i, err)
			}
		}
		for _, format := range []string{"sparse", "dense"} {
			body, err := sparsemat.NewJSONBody(m, format)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(matrixJSON{JSONBody: body})
			if err != nil {
				t.Fatal(err)
			}
			back, err := ReadMatrixJSON(bytes.NewReader(js))
			if err != nil {
				t.Fatalf("%s re-encoding of %q rejected: %v", format, doc, err)
			}
			gc, gb := back.Dense()
			wc, wb := m.Dense()
			if back.N != m.N || !equalU64(gc, wc) || !equalU64(gb, wb) || format == "sparse" && back.NNZ() != m.NNZ() {
				t.Fatalf("%s re-encoding of %q decodes to %+v, want %+v", format, doc, back, m)
			}
		}
	})
}

// TestFlushWrapsUnderlyingError pins satellite contract #3: a failing
// flush reports ErrInternalFail AND keeps the underlying cause reachable
// through errors.Is (the %w chain), so callers can branch on both.
func TestFlushWrapsUnderlyingError(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error { return ringTraffic(c, 64) })
		if err != nil {
			return err
		}
		defer s.Free()
		bad := "/nonexistent-dir-for-mpimon-test/prof"
		err = s.Flush(bad, AllComm)
		if !errors.Is(err, ErrInternalFail) {
			return fmt.Errorf("Flush to %q = %v, want ErrInternalFail", bad, err)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("Flush error %v does not wrap the underlying fs.ErrNotExist", err)
		}
		err = s.RootFlush(0, bad, AllComm)
		if c.Rank() == 0 {
			if !errors.Is(err, ErrInternalFail) || !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("RootFlush to %q = %v, want ErrInternalFail wrapping fs.ErrNotExist", bad, err)
			}
		} else if err != nil {
			return fmt.Errorf("non-root RootFlush: %v", err)
		}
		return nil
	})
}

// TestConcurrentSessionsSparseDenseEquality is the race-tier property test
// of satellite #4: several overlapping sessions per rank are driven through
// Suspend/Data/SparseData/Reset/Continue/Free concurrently while the rank's
// main goroutine keeps generating traffic; every successful read must show
// dense and sparse storage in exact agreement.
func TestConcurrentSessionsSparseDenseEquality(t *testing.T) {
	const np, workers, rounds = 4, 3, 8
	run(t, np, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		sessions := make([]*Session, workers)
		for i := range sessions {
			if sessions[i], err = env.Start(c); err != nil {
				return err
			}
		}
		for i := 0; i < workers; i++ {
			s := sessions[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := s.Suspend(); err != nil {
						errs <- err
						return
					}
					counts, bts, err := s.Data(AllComm)
					if err != nil {
						errs <- err
						return
					}
					row, err := s.SparseData(AllComm)
					if err != nil {
						errs <- err
						return
					}
					var sc, sb uint64
					for k := range row.Dst {
						sc += row.Cnt[k]
						sb += row.Byt[k]
					}
					var tc, tb uint64
					for j := range counts {
						tc += counts[j]
						tb += bts[j]
					}
					if tc != sc || tb != sb {
						errs <- fmt.Errorf("dense totals (%d,%d) != sparse totals (%d,%d)", tc, tb, sc, sb)
						return
					}
					if r%3 == 2 {
						if err := s.Reset(); err != nil {
							errs <- err
							return
						}
					}
					if err := s.Continue(); err != nil {
						errs <- err
						return
					}
				}
				if err := s.Suspend(); err != nil {
					errs <- err
					return
				}
				errs <- s.Free()
			}()
		}
		// Main rank goroutine keeps traffic flowing while the workers churn.
		for r := 0; r < 2*rounds; r++ {
			if err := ringTraffic(c, 128); err != nil {
				return err
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// TestAllgatherWireScalesWithNNZ is the satellite #6 guard: across two
// ring worlds whose size quadruples, the sparse allgather's wire bytes may
// grow about linearly (nnz = np on a ring) but nowhere near the 16x of a
// dense n² payload.
func TestAllgatherWireScalesWithNNZ(t *testing.T) {
	wire := func(np int) int {
		var w int
		world, err := mpi.NewWorld(netsim.PlaFRIM((np+23)/24), np)
		if err != nil {
			t.Fatal(err)
		}
		err = world.RunWithTimeout(30*time.Second, func(c *mpi.Comm) error {
			env, err := Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			s, err := startSuspended(c, env, func() error { return ringTraffic(c, 4096) })
			if err != nil {
				return err
			}
			defer s.Free()
			sm, err := s.AllgatherSparse(AllComm)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				w = sm.WireBytes()
				if sm.NNZ() != np {
					return fmt.Errorf("ring nnz = %d, want %d", sm.NNZ(), np)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w8, w32 := wire(8), wire(32)
	if w8 <= 0 || w32 <= 0 {
		t.Fatalf("wire sizes %d/%d", w8, w32)
	}
	// Linear growth would be 4x; dense n² growth 16x. Anything at or past
	// 8x means the encoding regressed toward dense.
	if w32 >= 8*w8 {
		t.Fatalf("allgather wire bytes grew %dx (from %d to %d) for 4x ranks; want ~linear in nnz", w32/w8, w8, w32)
	}
}

// TestRootgatherSparseRecordsWait: when the other ranks compute before the
// gather, root waits for their rows, and that wait is telemetry like any
// receive's — a positive mpimon_recv_wait_ns sum on root and recv.wait
// spans under root's gatherstream span.
func TestRootgatherSparseRecordsWait(t *testing.T) {
	const np, root = 4, 1
	tel := telemetry.New()
	w, err := mpi.NewWorld(netsim.PlaFRIM(1), np, mpi.WithEngine(mpi.EngineEvent), mpi.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	wait := tel.Registry().Histogram("mpimon_recv_wait_ns", telemetry.TimeBuckets, telemetry.L("rank", "1"))
	var before int64
	err = w.Run(func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := startSuspended(c, env, func() error { return ringTraffic(c, 100) })
		if err != nil {
			return err
		}
		defer s.Free()
		if c.Rank() == root {
			before = wait.Sum()
		} else {
			c.Proc().Compute(time.Millisecond)
		}
		_, err = s.RootgatherSparse(root, AllComm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := wait.Sum() - before; got <= 0 {
		t.Errorf("root's mpimon_recv_wait_ns grew by %d ns in the gather, want > 0", got)
	}
	var gather telemetry.Span
	for _, sp := range tel.Rank(root).Spans() {
		if sp.Name == "gatherstream" {
			gather = sp
		}
	}
	if gather.ID == 0 {
		t.Fatal("root recorded no gatherstream span")
	}
	waits := 0
	for _, sp := range tel.Rank(root).Spans() {
		if sp.Name == "recv.wait" && sp.Parent == gather.ID {
			waits++
			if sp.Start < gather.Start || sp.End > gather.End || sp.End <= sp.Start {
				t.Errorf("recv.wait span [%d, %d] outside its gatherstream span [%d, %d]", sp.Start, sp.End, gather.Start, gather.End)
			}
		}
	}
	if waits == 0 {
		t.Error("root recorded no recv.wait span inside its gatherstream span")
	}
}
