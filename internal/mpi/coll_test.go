package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpimon/internal/netsim"
	"mpimon/internal/pml"
)

func TestBarrierSynchronizes(t *testing.T) {
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error {
		// Rank 2 computes for 10 ms before the barrier; everyone must
		// leave the barrier at >= 10 ms.
		if c.Rank() == 2 {
			c.Proc().Compute(10 * time.Millisecond)
		}
		return c.Barrier()
	})
	for r := 0; r < 4; r++ {
		if got := w.Proc(r).Clock(); got < 10*time.Millisecond {
			t.Fatalf("rank %d left the barrier at %v, before rank 2 entered", r, got)
		}
	}
}

func TestBarrierSingleton(t *testing.T) {
	w := newTestWorld(t, 1)
	run(t, w, func(c *Comm) error { return c.Barrier() })
}

func TestBcastAllRoots(t *testing.T) {
	for np := 1; np <= 8; np++ {
		for root := 0; root < np; root++ {
			w := newTestWorld(t, np)
			run(t, w, func(c *Comm) error {
				buf := make([]byte, 33)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(i + root)
					}
				}
				if err := c.Bcast(buf, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i+root) {
						return fmt.Errorf("np=%d root=%d rank=%d byte %d corrupted", np, root, c.Rank(), i)
					}
				}
				return nil
			})
		}
	}
}

// TestBcastMismatchedLengths: a rank whose buffer was shorter than the
// root's used to return the truncation error without forwarding, stranding
// its subtree (a deadlock on the event engine, a hang on the goroutine
// one), and a rank whose buffer was longer forwarded its own stale tail
// behind the root's bytes. Every rank now forwards exactly the message it
// received, then reports its own truncation. At every root of np 1…9 on
// both engines — each non-root rank in turn passing 4 B against 8 B, and
// the root passing 4 B against 8 B — only the short rank errors, every
// other rank's first len(root buf) bytes are the root's, and the rest of
// every buffer is the rank's own.
func TestBcastMismatchedLengths(t *testing.T) {
	const long, short = 8, 4
	for name, eng := range testEngines(t) {
		for np := 1; np <= 9; np++ {
			for root := 0; root < np; root++ {
				for shortRank := 0; shortRank < np; shortRank++ {
					lens := make([]int, np)
					for r := range lens {
						lens[r] = long
					}
					lens[shortRank] = short
					own := func(r int) []byte {
						b := make([]byte, lens[r])
						for i := range b {
							b[i] = byte(16*r + i)
						}
						return b
					}
					bufs, errs := make([][]byte, np), make([]error, np)
					run(t, newEngineWorld(t, np, eng), func(c *Comm) error {
						r := c.Rank()
						bufs[r] = own(r)
						errs[r] = c.Bcast(bufs[r], root)
						return nil
					})
					for r := 0; r < np; r++ {
						want := own(r)
						truncated := r == shortRank && r != root
						if !truncated {
							copy(want, own(root))
						}
						if (errs[r] != nil) != truncated {
							t.Errorf("%s np=%d root=%d short=%d: rank %d returned %v", name, np, root, shortRank, r, errs[r])
						}
						if !bytes.Equal(bufs[r], want) {
							t.Errorf("%s np=%d root=%d short=%d: rank %d holds %x, want %x", name, np, root, shortRank, r, bufs[r], want)
						}
					}
				}
			}
		}
	}
}

func TestBcastRootValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if err := c.Bcast(nil, 7); err == nil {
			return errors.New("bcast with bad root should fail")
		}
		return nil
	})
}

func TestReduceSumAllRootsAndSizes(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < np; root += 2 {
			w := newTestWorld(t, np)
			run(t, w, func(c *Comm) error {
				vals := []float64{float64(c.Rank()), 2, -float64(c.Rank())}
				send := EncodeFloat64s(vals)
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, len(send))
				}
				if err := c.Reduce(send, recv, Float64, OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					got := DecodeFloat64s(recv)
					sumRanks := float64(np*(np-1)) / 2
					want := []float64{sumRanks, float64(2 * np), -sumRanks}
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("np=%d root=%d reduce[%d] = %v, want %v", np, root, i, got[i], want[i])
						}
					}
				}
				return nil
			})
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	w := newTestWorld(t, 5)
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{c.Rank() * 3})
		recv := make([]byte, len(send))
		if err := c.Reduce(send, recv, Int64, OpMax, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if got := DecodeInts(recv)[0]; got != 12 {
				return fmt.Errorf("max = %d, want 12", got)
			}
		}
		send2 := EncodeInts([]int{10 - c.Rank()})
		recv2 := make([]byte, len(send2))
		if err := c.Reduce(send2, recv2, Int64, OpMin, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if got := DecodeInts(recv2)[0]; got != 6 {
				return fmt.Errorf("min = %d, want 6", got)
			}
		}
		return nil
	})
}

func TestReduceBinomialMatchesBinary(t *testing.T) {
	for _, np := range []int{2, 4, 7} {
		w := newTestWorld(t, np)
		run(t, w, func(c *Comm) error {
			send := EncodeFloat64s([]float64{float64(c.Rank() + 1)})
			r1 := make([]byte, len(send))
			r2 := make([]byte, len(send))
			if err := c.Reduce(send, r1, Float64, OpSum, 0); err != nil {
				return err
			}
			if err := c.ReduceBinomial(send, r2, Float64, OpSum, 0); err != nil {
				return err
			}
			if c.Rank() == 0 && !bytes.Equal(r1, r2) {
				return fmt.Errorf("binary and binomial reduce disagree: %v vs %v",
					DecodeFloat64s(r1), DecodeFloat64s(r2))
			}
			return nil
		})
	}
}

func TestAllreduce(t *testing.T) {
	w := newTestWorld(t, 6)
	run(t, w, func(c *Comm) error {
		send := EncodeFloat64s([]float64{1, float64(c.Rank())})
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, Float64, OpSum); err != nil {
			return err
		}
		got := DecodeFloat64s(recv)
		if got[0] != 6 || got[1] != 15 {
			return fmt.Errorf("rank %d allreduce = %v, want [6 15]", c.Rank(), got)
		}
		return nil
	})
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		var all []byte
		if c.Rank() == 1 {
			all = make([]byte, np*2)
		}
		if err := c.Gather(send, all, 1); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < np; i++ {
				if all[2*i] != byte(i) || all[2*i+1] != byte(2*i) {
					return fmt.Errorf("gather block %d = %v", i, all[2*i:2*i+2])
				}
			}
		}
		// Scatter it back.
		back := make([]byte, 2)
		if err := c.Scatter(all, back, 1); err != nil {
			return err
		}
		if back[0] != byte(c.Rank()) || back[1] != byte(2*c.Rank()) {
			return fmt.Errorf("scatter to rank %d = %v", c.Rank(), back)
		}
		return nil
	})
}

func TestGatherBufferValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Gather([]byte{1}, make([]byte, 5), 0); err == nil {
				return errors.New("wrong gather buffer size should fail")
			}
			// Now a correct one so rank 1's send is consumed.
			return c.Gather([]byte{1}, make([]byte, 2), 0)
		}
		return c.Gather([]byte{2}, nil, 0)
	})
}

func TestAllgather(t *testing.T) {
	for _, np := range []int{1, 2, 3, 6} {
		w := newTestWorld(t, np)
		run(t, w, func(c *Comm) error {
			send := []byte{byte(100 + c.Rank())}
			recv := make([]byte, np)
			if err := c.Allgather(send, recv); err != nil {
				return err
			}
			for i := 0; i < np; i++ {
				if recv[i] != byte(100+i) {
					return fmt.Errorf("np=%d rank=%d recv=%v", np, c.Rank(), recv)
				}
			}
			return nil
		})
	}
}

func TestAlltoall(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := make([]byte, np)
		for j := range send {
			send[j] = byte(10*c.Rank() + j)
		}
		recv := make([]byte, np)
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != byte(10*i+c.Rank()) {
				return fmt.Errorf("rank %d recv=%v", c.Rank(), recv)
			}
		}
		return nil
	})
}

func TestCollectivesAreMonitoredAsColl(t *testing.T) {
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error {
		buf := make([]byte, 1000)
		return c.Bcast(buf, 0)
	})
	// The broadcast decomposed into point-to-point messages of class
	// Coll; no P2P-class traffic at all.
	var collMsgs, p2pMsgs uint64
	for r := 0; r < 4; r++ {
		m := w.Proc(r).Monitor()
		counts := make([]uint64, 4)
		m.Counts(pml.Coll, counts)
		for _, v := range counts {
			collMsgs += v
		}
		m.Counts(pml.P2P, counts)
		for _, v := range counts {
			p2pMsgs += v
		}
	}
	// A binomial bcast over 4 ranks sends exactly 3 messages.
	if collMsgs != 3 {
		t.Fatalf("collective decomposition produced %d messages, want 3", collMsgs)
	}
	if p2pMsgs != 0 {
		t.Fatalf("collective traffic leaked into the P2P class: %d messages", p2pMsgs)
	}
}

func TestBarrierGeneratesZeroLengthMessages(t *testing.T) {
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error { return c.Barrier() })
	var msgs, bts uint64
	for r := 0; r < 4; r++ {
		m := w.Proc(r).Monitor()
		counts := make([]uint64, 4)
		m.Counts(pml.Coll, counts)
		for _, v := range counts {
			msgs += v
		}
		bts += m.TotalBytes(pml.Coll)
	}
	if msgs == 0 {
		t.Fatal("barrier produced no monitored messages")
	}
	if bts != 0 {
		t.Fatalf("barrier moved %d bytes, want 0 (zero-length messages)", bts)
	}
}

// TestGatherStream checks blocks arrive in source order with the correct
// contents, and that the delivery buffer may be reused (root copies).
func TestGatherStream(t *testing.T) {
	const np, root = 6, 2
	w, err := NewWorld(netsim.PlaFRIM(1), np)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	blocks := make(map[int][]byte)
	err = w.Run(func(c *Comm) error {
		me := c.Rank()
		send := bytes.Repeat([]byte{byte(me + 1)}, me+1)
		return c.GatherStream(send, root, func(src int, block []byte) error {
			mu.Lock()
			order = append(order, src)
			blocks[src] = append([]byte(nil), block...)
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != np {
		t.Fatalf("delivered %d blocks, want %d", len(order), np)
	}
	for i, src := range order {
		if i != src {
			t.Errorf("delivery %d came from rank %d, want ascending source order", i, src)
		}
	}
	for src, b := range blocks {
		want := bytes.Repeat([]byte{byte(src + 1)}, src+1)
		if !bytes.Equal(b, want) {
			t.Errorf("rank %d block = %v, want %v", src, b, want)
		}
	}
}

func TestGatherStreamDeliverError(t *testing.T) {
	w, err := NewWorld(netsim.PlaFRIM(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("deliver failed")
	err = w.Run(func(c *Comm) error {
		err := c.GatherStream([]byte{byte(c.Rank())}, 0, func(src int, block []byte) error {
			if src == 1 {
				return boom
			}
			return nil
		})
		if c.Rank() == 0 && err == nil {
			return fmt.Errorf("GatherStream swallowed the deliver error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
