package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mpimon/internal/netsim"
)

// engines lists the execution engines every algorithm test runs on; the
// nil entry is the default goroutine engine.
func testEngines(t *testing.T) map[string]Engine {
	t.Helper()
	ev, err := EngineByName("event")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Engine{"goroutine": nil, "event": ev}
}

// newEngineWorld builds an np-rank world on e: on testMachine up to its 8
// cores, on one 24-core PlaFRIM node beyond.
func newEngineWorld(t *testing.T, np int, e Engine, opts ...Option) *World {
	t.Helper()
	if e != nil {
		opts = append(opts, WithEngine(e))
	}
	mach := testMachine()
	if np > 8 {
		mach = netsim.PlaFRIM(1)
	}
	w, err := NewWorld(mach, np, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAllreduceRingMatchesAllreduce(t *testing.T) {
	for name, eng := range testEngines(t) {
		for _, np := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
			w := newEngineWorld(t, np, eng)
			run(t, w, func(c *Comm) error {
				vals := make([]float64, 5) // 5 elements over up to 8 ranks: some empty blocks
				for i := range vals {
					vals[i] = float64((c.Rank() + 1) * (i + 1))
				}
				send := EncodeFloat64s(vals)
				r1 := make([]byte, len(send))
				r2 := make([]byte, len(send))
				if err := c.Allreduce(send, r1, Float64, OpSum); err != nil {
					return err
				}
				if err := c.AllreduceRing(send, r2, Float64, OpSum); err != nil {
					return err
				}
				if !bytes.Equal(r1, r2) {
					return fmt.Errorf("%s np=%d rank=%d: ring %v vs default %v",
						name, np, c.Rank(), DecodeFloat64s(r2), DecodeFloat64s(r1))
				}
				return nil
			})
		}
	}
}

func TestAllreduceRabMatchesAllreduce(t *testing.T) {
	for name, eng := range testEngines(t) {
		for _, np := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
			w := newEngineWorld(t, np, eng)
			run(t, w, func(c *Comm) error {
				vals := []int{c.Rank() + 1, -c.Rank(), 7 * c.Rank(), 3, c.Rank() * c.Rank(), 11, -5}
				send := EncodeInts(vals)
				r1 := make([]byte, len(send))
				r2 := make([]byte, len(send))
				if err := c.Allreduce(send, r1, Int64, OpSum); err != nil {
					return err
				}
				if err := c.AllreduceRab(send, r2, Int64, OpSum); err != nil {
					return err
				}
				if !bytes.Equal(r1, r2) {
					return fmt.Errorf("%s np=%d rank=%d: rab %v vs default %v",
						name, np, c.Rank(), DecodeInts(r2), DecodeInts(r1))
				}
				return nil
			})
		}
	}
}

func TestAllreduceRabMax(t *testing.T) {
	for _, np := range []int{3, 6} { // non-power-of-two exercises the fold
		w := newTestWorld(t, np)
		run(t, w, func(c *Comm) error {
			send := EncodeInts([]int{c.Rank() * 7, -c.Rank()})
			recv := make([]byte, len(send))
			if err := c.AllreduceRab(send, recv, Int64, OpMax); err != nil {
				return err
			}
			got := DecodeInts(recv)
			if got[0] != (np-1)*7 || got[1] != 0 {
				return fmt.Errorf("np=%d rank %d: max = %v", np, c.Rank(), got)
			}
			return nil
		})
	}
}

// ragged per-pair counts for the alltoallv tests: rank i sends (i+j)%3
// elements to rank j (some blocks empty).
func raggedCounts(me, np int) (send []byte, scounts, sdispls []int, rcounts, rdispls []int, total int) {
	scounts = make([]int, np)
	sdispls = make([]int, np)
	rcounts = make([]int, np)
	rdispls = make([]int, np)
	off := 0
	for j := 0; j < np; j++ {
		scounts[j] = (me + j) % 3
		sdispls[j] = off
		off += scounts[j]
	}
	send = make([]byte, off)
	for j := 0; j < np; j++ {
		for k := 0; k < scounts[j]; k++ {
			send[sdispls[j]+k] = byte(100 + me*10 + j)
		}
	}
	off = 0
	for j := 0; j < np; j++ {
		rcounts[j] = (j + me) % 3
		rdispls[j] = off
		off += rcounts[j]
	}
	return send, scounts, sdispls, rcounts, rdispls, off
}

func TestAlltoallvBruckMatchesPairwise(t *testing.T) {
	for name, eng := range testEngines(t) {
		for _, np := range []int{1, 2, 3, 4, 5, 7, 8} {
			w := newEngineWorld(t, np, eng)
			run(t, w, func(c *Comm) error {
				send, sc, sd, rc, rd, rtot := raggedCounts(c.Rank(), np)
				r1 := make([]byte, rtot)
				r2 := make([]byte, rtot)
				if err := c.Alltoallv(send, sc, sd, r1, rc, rd); err != nil {
					return err
				}
				if err := c.AlltoallvBruck(send, sc, sd, r2, rc, rd); err != nil {
					return err
				}
				if !bytes.Equal(r1, r2) {
					return fmt.Errorf("%s np=%d rank=%d: bruck %v vs pairwise %v", name, np, c.Rank(), r2, r1)
				}
				return nil
			})
		}
	}
}

func TestAlltoallvBruckLargeUnevenBlocks(t *testing.T) {
	const np = 6
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		scounts := make([]int, np)
		sdispls := make([]int, np)
		off := 0
		for j := 0; j < np; j++ {
			scounts[j] = 512*j + c.Rank() // 0-byte block to rank 0 from rank 0
			sdispls[j] = off
			off += scounts[j]
		}
		send := make([]byte, off)
		for j := 0; j < np; j++ {
			for k := 0; k < scounts[j]; k++ {
				send[sdispls[j]+k] = byte(c.Rank() ^ j ^ k)
			}
		}
		rcounts := make([]int, np)
		rdispls := make([]int, np)
		off = 0
		for j := 0; j < np; j++ {
			rcounts[j] = 512*c.Rank() + j
			rdispls[j] = off
			off += rcounts[j]
		}
		recv := make([]byte, off)
		if err := c.AlltoallvBruck(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
			return err
		}
		for j := 0; j < np; j++ {
			for k := 0; k < rcounts[j]; k++ {
				if got, want := recv[rdispls[j]+k], byte(j^c.Rank()^k); got != want {
					return fmt.Errorf("rank %d block from %d byte %d = %d, want %d", c.Rank(), j, k, got, want)
				}
			}
		}
		return nil
	})
}

// The edge-case matrix of the satellite: aliased send/recv, zero-length
// buffers, and np=1, across the allreduce variants, Scan/Exscan, and the
// alltoallv algorithms, on both engines.

func TestCollectiveAliasedBuffers(t *testing.T) {
	type alg struct {
		name string
		call func(c *Comm, buf []byte) error
	}
	algs := []alg{
		{"allreduce", func(c *Comm, b []byte) error { return c.Allreduce(b, b, Int64, OpSum) }},
		{"allreduce.rd", func(c *Comm, b []byte) error { return c.AllreduceRD(b, b, Int64, OpSum) }},
		{"allreduce.ring", func(c *Comm, b []byte) error { return c.AllreduceRing(b, b, Int64, OpSum) }},
		{"allreduce.rab", func(c *Comm, b []byte) error { return c.AllreduceRab(b, b, Int64, OpSum) }},
		{"scan", func(c *Comm, b []byte) error { return c.Scan(b, b, Int64, OpSum) }},
	}
	for name, eng := range testEngines(t) {
		for _, np := range []int{1, 3, 4, 5} {
			for _, a := range algs {
				w := newEngineWorld(t, np, eng)
				var want []int
				run(t, w, func(c *Comm) error {
					// Reference result with distinct buffers.
					send := EncodeInts([]int{c.Rank() + 1, 2 * c.Rank()})
					ref := make([]byte, len(send))
					var err error
					switch a.name {
					case "scan":
						err = c.Scan(send, ref, Int64, OpSum)
					default:
						err = c.Allreduce(send, ref, Int64, OpSum)
					}
					if err != nil {
						return err
					}
					// Same operation in place.
					buf := EncodeInts([]int{c.Rank() + 1, 2 * c.Rank()})
					if err := a.call(c, buf); err != nil {
						return err
					}
					if !bytes.Equal(buf, ref) {
						return fmt.Errorf("%s %s np=%d rank=%d aliased: %v want %v",
							name, a.name, np, c.Rank(), DecodeInts(buf), DecodeInts(ref))
					}
					_ = want
					return nil
				})
			}
		}
	}
}

func TestCollectiveZeroLengthBuffers(t *testing.T) {
	for name, eng := range testEngines(t) {
		for _, np := range []int{1, 4, 5} {
			w := newEngineWorld(t, np, eng)
			run(t, w, func(c *Comm) error {
				var e []byte
				zc := make([]int, np)
				zd := make([]int, np)
				steps := []struct {
					what string
					err  error
				}{
					{"allreduce", c.Allreduce(e, e, Int64, OpSum)},
					{"allreduce.rd", c.AllreduceRD(e, e, Int64, OpSum)},
					{"allreduce.ring", c.AllreduceRing(e, e, Int64, OpSum)},
					{"allreduce.rab", c.AllreduceRab(e, e, Int64, OpSum)},
					{"scan", c.Scan(e, e, Int64, OpSum)},
					{"exscan", c.Exscan(e, e, Int64, OpSum)},
					{"alltoallv", c.Alltoallv(e, zc, zd, e, zc, zd)},
					{"alltoallv.bruck", c.AlltoallvBruck(e, zc, zd, e, zc, zd)},
				}
				for _, s := range steps {
					if s.err != nil {
						return fmt.Errorf("%s np=%d rank=%d %s with zero-length buffers: %v", name, np, c.Rank(), s.what, s.err)
					}
				}
				return nil
			})
		}
	}
}

func TestCollectiveSingleRank(t *testing.T) {
	for name, eng := range testEngines(t) {
		w := newEngineWorld(t, 1, eng)
		run(t, w, func(c *Comm) error {
			send := EncodeInts([]int{42})
			for _, v := range []struct {
				what string
				call func(recv []byte) error
			}{
				{"allreduce", func(r []byte) error { return c.Allreduce(send, r, Int64, OpSum) }},
				{"allreduce.rd", func(r []byte) error { return c.AllreduceRD(send, r, Int64, OpSum) }},
				{"allreduce.ring", func(r []byte) error { return c.AllreduceRing(send, r, Int64, OpSum) }},
				{"allreduce.rab", func(r []byte) error { return c.AllreduceRab(send, r, Int64, OpSum) }},
				{"scan", func(r []byte) error { return c.Scan(send, r, Int64, OpSum) }},
			} {
				recv := make([]byte, len(send))
				if err := v.call(recv); err != nil {
					return fmt.Errorf("%s np=1 %s: %v", name, v.what, err)
				}
				if got := DecodeInts(recv)[0]; got != 42 {
					return fmt.Errorf("%s np=1 %s = %d, want 42", name, v.what, got)
				}
			}
			// Exscan at np=1 leaves recv untouched; alltoallv round-trips
			// the single local block.
			recv := EncodeInts([]int{-1})
			if err := c.Exscan(send, recv, Int64, OpSum); err != nil {
				return err
			}
			if got := DecodeInts(recv)[0]; got != -1 {
				return fmt.Errorf("%s np=1 exscan touched recv: %d", name, got)
			}
			one := []byte{9}
			out := make([]byte, 1)
			if err := c.AlltoallvBruck(one, []int{1}, []int{0}, out, []int{1}, []int{0}); err != nil {
				return err
			}
			if out[0] != 9 {
				return fmt.Errorf("%s np=1 bruck alltoallv = %v", name, out)
			}
			return nil
		})
	}
}

// The new algorithms must be monitored as Coll traffic like every other
// collective, and their virtual cost must be engine-independent (the
// detailed cross-engine pin lives in internal/coll's pin test).
func TestNewAlgorithmsMonitoredAsColl(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{1, 2, 3})
		recv := make([]byte, len(send))
		if err := c.AllreduceRing(send, recv, Int64, OpSum); err != nil {
			return err
		}
		if err := c.AllreduceRab(send, recv, Int64, OpSum); err != nil {
			return err
		}
		s, sc, sd, rc, rd, rtot := raggedCounts(c.Rank(), np)
		r := make([]byte, rtot)
		return c.AlltoallvBruck(s, sc, sd, r, rc, rd)
	})
	var p2p, coll uint64
	for r := 0; r < np; r++ {
		p2p += w.Proc(r).Monitor().TotalBytes(0)  // pml.P2P
		coll += w.Proc(r).Monitor().TotalBytes(1) // pml.Coll
	}
	if p2p != 0 {
		t.Fatalf("new algorithms leaked %d bytes into the P2P class", p2p)
	}
	if coll == 0 {
		t.Fatal("new algorithms recorded nothing")
	}
	if w.MaxClock() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// A long virtual run must still finish quickly in wall time (sanity bound
// on algorithmic blowup in the new code paths).
func TestNewAlgorithmsTerminate(t *testing.T) {
	w := newTestWorld(t, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(func(c *Comm) error {
			send := make([]byte, 1<<16)
			recv := make([]byte, 1<<16)
			if err := c.AllreduceRing(send, recv, Byte, OpSum); err != nil {
				return err
			}
			return c.AllreduceRab(send, recv, Byte, OpSum)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("new algorithms did not terminate")
	}
}

// FuzzBruckFrame feeds arbitrary frames to decodeBruckFrame for a group of
// n ranks. An accepted frame may write staging indices in [1, n) only, and
// re-encoding the staged blocks with bruckFrame, then decoding that, must
// give the same blocks — not the same bytes: a frame may spell a uvarint
// overlong. The seed corpus (a valid three-block frame, an overlong index,
// a truncated length, index 0, an index ≥ n, trailing bytes) is checked in
// under testdata/fuzz/FuzzBruckFrame.
func FuzzBruckFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, nRaw uint8) {
		n := int(nRaw)
		guard := []byte("guard")
		staging := make([][]byte, n+2) // indices 0, n and n+1 must stay untouched
		staging[0], staging[n], staging[n+1] = guard, guard, guard
		if decodeBruckFrame(frame, n, staging) != nil {
			return
		}
		for _, j := range []int{0, n, n + 1} {
			if !bytes.Equal(staging[j], []byte("guard")) {
				t.Fatalf("n=%d: accepted frame wrote index %d", n, j)
			}
		}
		m := bruckFrame(staging[:n], -1) // every index in [1, n)
		again := make([][]byte, n)
		if err := decodeBruckFrame(m.data, n, again); err != nil {
			t.Fatalf("n=%d: re-encoded frame %x rejected: %v", n, m.data, err)
		}
		m.release()
		for j := 1; j < n; j++ {
			if !bytes.Equal(again[j], staging[j]) {
				t.Fatalf("n=%d: block %d is %x after the round trip, want %x", n, j, again[j], staging[j])
			}
		}
	})
}
