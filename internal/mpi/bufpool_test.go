package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mpimon/internal/faults"
)

// These tests pin down the safety contract of the pooled message buffers
// (bufpool.go): a recycled payload must never be observable by the
// application. Run them under -race (the Makefile's race tier does): any
// release that happens before the consuming receive finished its copy-out
// shows up as a data race on the recycled array.

func TestBufClass(t *testing.T) {
	for _, tc := range []struct{ n, cls int }{
		{0, poolStruct},
		{1, 0},
		{64, 0},
		{65, 1},
		{128, 1},
		{1 << 20, numBufClasses - 1},
		{1<<20 + 1, poolNone},
	} {
		if got := bufClass(tc.n); got != tc.cls {
			t.Errorf("bufClass(%d) = %d, want %d", tc.n, got, tc.cls)
		}
	}
	for n := 1; n <= 1<<20; n = n*7/3 + 1 {
		cls := bufClass(n)
		if cls < 0 || cls >= numBufClasses {
			t.Fatalf("bufClass(%d) = %d out of range", n, cls)
		}
		if c := 1 << (bufMinShift + cls); c < n {
			t.Fatalf("bufClass(%d) = %d holds only %d bytes", n, cls, c)
		}
		if cls > 0 {
			if c := 1 << (bufMinShift + cls - 1); c >= n {
				t.Fatalf("bufClass(%d) = %d but class %d already fits", n, cls, cls-1)
			}
		}
	}
}

// pattern fills b with a sequence derived from seed so any cross-talk
// between recycled buffers is detected by content, not just by the race
// detector.
func pattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7)
	}
}

// TestPooledSendIntegrity hammers sends of many sizes (hitting several pool
// classes, including the >1MiB unpooled path) between all pairs and checks
// every payload arrives intact.
func TestPooledSendIntegrity(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 1024, 4096, 70000}
	if !testing.Short() {
		sizes = append(sizes, 1<<20, 1<<20+17)
	}
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error {
		n := c.Size()
		for round, size := range sizes {
			for dst := 0; dst < n; dst++ {
				if dst == c.rank {
					continue
				}
				out := make([]byte, size)
				pattern(out, byte(c.rank*31+round))
				if err := c.Send(dst, round, out); err != nil {
					return err
				}
				// Buffered semantics: scribbling over the caller's buffer
				// after Send must not affect what the receiver sees.
				pattern(out, 0xEE)
			}
			for src := 0; src < n; src++ {
				if src == c.rank {
					continue
				}
				buf := make([]byte, size)
				st, err := c.Recv(src, round, buf)
				if err != nil {
					return err
				}
				if st.Size != size {
					return fmt.Errorf("round %d: got %d bytes from %d, want %d", round, st.Size, src, size)
				}
				want := make([]byte, size)
				pattern(want, byte(src*31+round))
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("round %d: corrupted payload from %d", round, src)
				}
			}
		}
		return nil
	})
}

// TestPooledAnySourceAndDiscard covers the consumption paths that release a
// pooled message without a full copy-out: AnySource matching, nil-buffer
// discards, and short-message receives into larger buffers.
func TestPooledAnySourceAndDiscard(t *testing.T) {
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error {
		n := c.Size()
		if c.rank == 0 {
			got := make(map[int]bool)
			for i := 0; i < n-1; i++ {
				buf := make([]byte, 256) // larger than any message
				st, err := c.Recv(AnySource, 1, buf)
				if err != nil {
					return err
				}
				want := make([]byte, 100+st.Source)
				pattern(want, byte(st.Source))
				if !bytes.Equal(buf[:st.Size], want) {
					return fmt.Errorf("corrupted AnySource payload from %d", st.Source)
				}
				got[st.Source] = true
			}
			if len(got) != n-1 {
				return fmt.Errorf("AnySource saw %d senders, want %d", len(got), n-1)
			}
			// Discard path: nil buffer still consumes (and recycles).
			for src := 1; src < n; src++ {
				if _, err := c.Recv(src, 2, nil); err != nil {
					return err
				}
			}
			return nil
		}
		out := make([]byte, 100+c.rank)
		pattern(out, byte(c.rank))
		if err := c.Send(0, 1, out); err != nil {
			return err
		}
		return c.Send(0, 2, out)
	})
}

// TestPooledTruncationError checks the error path: a truncated receive must
// consume and recycle the message, report the error, and leave subsequent
// traffic intact.
func TestPooledTruncationError(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.rank == 0 {
			big := make([]byte, 512)
			pattern(big, 3)
			if err := c.Send(1, 1, big); err != nil {
				return err
			}
			ok := make([]byte, 128)
			pattern(ok, 4)
			return c.Send(1, 2, ok)
		}
		small := make([]byte, 16)
		if _, err := c.Recv(0, 1, small); err == nil {
			return fmt.Errorf("truncated receive did not error")
		}
		buf := make([]byte, 128)
		if _, err := c.Recv(0, 2, buf); err != nil {
			return err
		}
		want := make([]byte, 128)
		pattern(want, 4)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("payload after truncation error corrupted")
		}
		return nil
	})
}

// TestPooledNonblocking exercises the Isend/Irecv/Test consumption paths,
// including a truncation error surfaced through Test.
func TestPooledNonblocking(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.rank == 0 {
			out := make([]byte, 300)
			pattern(out, 9)
			req, err := c.Isend(1, 5, out)
			if err != nil {
				return err
			}
			pattern(out, 0xAA) // sender may reuse immediately
			if _, err := req.Wait(); err != nil {
				return err
			}
			big := make([]byte, 400)
			pattern(big, 10)
			return c.Send(1, 6, big)
		}
		buf := make([]byte, 300)
		req, err := c.Irecv(0, 5, buf)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		want := make([]byte, 300)
		pattern(want, 9)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("Irecv payload corrupted")
		}
		// Test-path truncation: poll until the message is consumed.
		small := make([]byte, 8)
		treq, err := c.Irecv(0, 6, small)
		if err != nil {
			return err
		}
		if _, err := c.Probe(0, 6); err != nil { // ensure it is queued
			return err
		}
		_, ok, err := treq.Test()
		if !ok {
			return fmt.Errorf("Test did not consume a queued message")
		}
		if err == nil {
			return fmt.Errorf("truncated Test did not error")
		}
		return nil
	})
}

// TestPooledAlltoallStress pushes collective traffic (whose internal
// payloads ride the pool via sendCopyOn) concurrently on all ranks.
func TestPooledAlltoallStress(t *testing.T) {
	w := newTestWorld(t, 8)
	rounds := 40
	if testing.Short() {
		rounds = 5
	}
	run(t, w, func(c *Comm) error {
		n := c.Size()
		blk := 96 // spans two pool classes with the 17-byte osc header offset
		for r := 0; r < rounds; r++ {
			send := make([]byte, n*blk)
			pattern(send, byte(c.rank+r))
			recv := make([]byte, n*blk)
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for src := 0; src < n; src++ {
				want := make([]byte, n*blk)
				pattern(want, byte(src+r))
				if !bytes.Equal(recv[src*blk:(src+1)*blk], want[c.rank*blk:(c.rank+1)*blk]) {
					return fmt.Errorf("round %d: alltoall block from %d corrupted", r, src)
				}
			}
		}
		return nil
	})
}

func BenchmarkSendRecvAllocs(b *testing.B) {
	benchmarkSendRecv(b, nil)
}

// BenchmarkSendRecvFaultPlan prices the enabled fault path: a plan with one
// never-matching rule forces every transfer through the injector, the
// disabled/enabled split BenchmarkSendRecvAllocs measures the other side of.
func BenchmarkSendRecvFaultPlan(b *testing.B) {
	benchmarkSendRecv(b, &faults.Plan{Links: []faults.LinkRule{
		{SrcNode: 0, DstNode: 1, From: time.Hour, Until: time.Hour + time.Second, ExtraLatency: time.Microsecond},
	}})
}

func benchmarkSendRecv(b *testing.B, plan *faults.Plan) {
	for _, size := range []int{64, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var opts []Option
			if plan != nil {
				opts = append(opts, WithFaultPlan(plan))
			}
			w, err := NewWorld(testMachine(), 2, opts...)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]byte, size)
			in := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			err = w.Run(func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						if err := c.Send(1, 0, out); err != nil {
							return err
						}
						if _, err := c.Recv(1, 1, in); err != nil {
							return err
						}
					}
				} else {
					for i := 0; i < b.N; i++ {
						if _, err := c.Recv(0, 0, in); err != nil {
							return err
						}
						if err := c.Send(0, 1, out); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestForwardingReleasesOnce follows the pooled messages of Bcast and the
// Allgather ring through the pool ledger. Both forward the message a rank
// received instead of a copy of it, so a message changes owner hop by hop;
// each must still be drawn once and released once, or be left queued. At np
// 1…9, for every Bcast root and for Allgather, three ways: fault-free, with
// the last rank's buffers half as long as everyone else's, and with every
// message dropped.
func TestForwardingReleasesOnce(t *testing.T) {
	const blk = 96
	dropAll := WithFaultPlan(&faults.Plan{Links: []faults.LinkRule{{SrcNode: -1, DstNode: -1, DropProb: 1}}})
	scenarios := []struct {
		name  string
		opts  []Option
		short bool
	}{
		{"fault-free", nil, false},
		{"short buffer", nil, true},
		{"every message dropped", []Option{dropAll}, false},
	}
	for _, sc := range scenarios {
		for np := 1; np <= 9; np++ {
			for root := -1; root < np; root++ { // -1 is the Allgather
				what := fmt.Sprintf("bcast-root%d", root)
				if root < 0 {
					what = "allgather"
				}
				t.Run(fmt.Sprintf("%s/np%d/%s", sc.name, np, what), func(t *testing.T) {
					ledger := tracePool(t)
					w := newEngineWorld(t, np, EngineEvent, sc.opts...)
					err := w.Run(func(c *Comm) error {
						n := blk
						if sc.short && c.Rank() == np-1 {
							n = blk / 2
						}
						if root < 0 {
							return c.Allgather(make([]byte, n), make([]byte, np*n))
						}
						return c.Bcast(make([]byte, n), root)
					})
					if sc.name == "fault-free" && err != nil {
						t.Error(err)
					}
					ledger.requireBalanced(t, w)
				})
			}
		}
	}
}
