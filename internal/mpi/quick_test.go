package mpi

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Property: encode/decode round-trips are the identity.
func TestEncodeDecodeRoundTrips(t *testing.T) {
	if err := quick.Check(func(v []float64) bool {
		got := DecodeFloat64s(EncodeFloat64s(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal("float64 round trip:", err)
	}
	if err := quick.Check(func(v []uint64) bool {
		got := DecodeUint64s(EncodeUint64s(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal("uint64 round trip:", err)
	}
	if err := quick.Check(func(v []int32) bool {
		ints := make([]int, len(v))
		for i, x := range v {
			ints[i] = int(x)
		}
		got := DecodeInts(EncodeInts(ints))
		for i := range ints {
			if got[i] != ints[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal("int round trip:", err)
	}
}

// Property: reduceTo with OpSum is commutative and OpMax/OpMin are
// idempotent and commutative, for every datatype.
func TestReduceIntoProperties(t *testing.T) {
	check := func(dt Datatype, op Op, a, b []byte) bool {
		if len(a) != len(b) || len(a)%dt.Size() != 0 {
			return true // precondition not met; skip
		}
		ab := append([]byte(nil), a...)
		if err := reduceTo(ab, ab, b, dt, op); err != nil {
			return false
		}
		ba := append([]byte(nil), b...)
		if err := reduceTo(ba, ba, a, dt, op); err != nil {
			return false
		}
		if dt == Float64 {
			// NaNs break bitwise comparison; compare decoded.
			x, y := DecodeFloat64s(ab), DecodeFloat64s(ba)
			for i := range x {
				if x[i] != y[i] && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
					return false
				}
			}
			return true
		}
		return bytes.Equal(ab, ba)
	}
	for _, dt := range []Datatype{Byte, Int32, Int64, Uint64, Float64} {
		for _, op := range []Op{OpSum, OpMax, OpMin} {
			es := dt.Size()
			f := func(raw []byte) bool {
				n := (len(raw) / (2 * es)) * es
				return check(dt, op, raw[:n], raw[n:2*n])
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatalf("dt=%v op=%v: %v", dt, op, err)
			}
		}
	}
}

// Property: max/min are idempotent: op(a, a) == a.
func TestReduceIdempotent(t *testing.T) {
	for _, op := range []Op{OpMax, OpMin} {
		f := func(v []uint64) bool {
			a := EncodeUint64s(v)
			acc := append([]byte(nil), a...)
			if err := reduceTo(acc, acc, a, Uint64, op); err != nil {
				return false
			}
			return bytes.Equal(acc, a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
	}
}

// Property: reduceTo rejects length mismatches (of the operands or of the
// result), odd buffer sizes and any datatype or op outside the supported
// ones — with an error, never a panic, and without touching acc.
func TestReduceIntoValidation(t *testing.T) {
	if err := reduceTo(make([]byte, 8), make([]byte, 8), make([]byte, 16), Int64, OpSum); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if err := reduceTo(make([]byte, 16), make([]byte, 8), make([]byte, 8), Int64, OpSum); err == nil {
		t.Fatal("result length mismatch should fail")
	}
	if err := reduceTo(make([]byte, 7), make([]byte, 7), make([]byte, 7), Int64, OpSum); err == nil {
		t.Fatal("non-multiple buffer should fail")
	}
	known := func(dt Datatype, op Op) bool {
		return dt >= Byte && dt <= Float64 && op >= OpSum && op <= OpMin
	}
	f := func(v []uint64, dt int8, op int8) bool {
		in := EncodeUint64s(v)
		acc := append([]byte(nil), in...)
		err := reduceTo(acc, acc, in, Datatype(dt), Op(op))
		if known(Datatype(dt), Op(op)) {
			return err == nil
		}
		return err != nil && bytes.Equal(acc, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal("unknown datatype or op:", err)
	}
}

// Property: the message queue preserves per-sender FIFO under arbitrary
// interleavings of two senders.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(order []bool) bool {
		w := &World{}
		q := msgQueue{}
		q.init(&Proc{world: w}, &w.aborted)
		seq := map[int]int{}
		for _, fromA := range order {
			src := 0
			if !fromA {
				src = 1
			}
			q.put(&message{src: src, tag: seq[src], ctx: 0})
			seq[src]++
		}
		// Drain per sender; tags must come out in order.
		for src := 0; src < 2; src++ {
			for i := 0; i < seq[src]; i++ {
				m, ok := q.tryTake(0, src, AnyTag)
				if !ok || m.tag != i {
					return false
				}
			}
		}
		return q.pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: wildcard take returns some matching message and never one from
// a different context.
func TestQueueContextIsolationProperty(t *testing.T) {
	f := func(ctxs []uint8) bool {
		w := &World{}
		q := msgQueue{}
		q.init(&Proc{world: w}, &w.aborted)
		count := map[int]int{}
		for _, c := range ctxs {
			ctx := int(c % 3)
			q.put(&message{src: 0, tag: 0, ctx: ctx})
			count[ctx]++
		}
		for ctx := 0; ctx < 3; ctx++ {
			for i := 0; i < count[ctx]; i++ {
				m, ok := q.tryTake(ctx, AnySource, AnyTag)
				if !ok || m.ctx != ctx {
					return false
				}
			}
			if _, ok := q.tryTake(ctx, AnySource, AnyTag); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any pair of distinct cores, doubling the message size never
// decreases the arrival time, and arrival is strictly after the send.
func TestTransferMonotonicProperty(t *testing.T) {
	w := newTestWorld(t, 2)
	net := w.Network()
	f := func(srcU, dstU uint8, sizeU uint16) bool {
		cores := w.Machine().Topo.Leaves()
		src := int(srcU) % cores
		dst := int(dstU) % cores
		size := int(sizeU)
		_, a1 := net.Transfer(src, dst, size, 1000)
		_, a2 := net.Transfer(src, dst, size*2, 1000)
		return a1 > 1000 && a2 >= a1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Split with any color function produces communicators that
// partition the world and preserve relative rank order for equal keys.
func TestSplitPartitionProperty(t *testing.T) {
	const np = 6
	for trial, mod := range []int{1, 2, 3, 5} {
		w := newTestWorld(t, np)
		run(t, w, func(c *Comm) error {
			sub, err := c.Split(c.Rank()%mod, 0)
			if err != nil {
				return err
			}
			// Group members must all share my color and be sorted by
			// world rank (equal keys).
			for i, wr := range sub.Group() {
				if wr%mod != c.Rank()%mod {
					return fmt.Errorf("trial %d: foreign member %d", trial, wr)
				}
				if i > 0 && wr <= sub.Group()[i-1] {
					return fmt.Errorf("trial %d: group not ordered: %v", trial, sub.Group())
				}
			}
			// Sizes over all colors sum to np: each member can check
			// its own group size is the expected count.
			want := 0
			for r := 0; r < np; r++ {
				if r%mod == c.Rank()%mod {
					want++
				}
			}
			if sub.Size() != want {
				return fmt.Errorf("trial %d: size %d, want %d", trial, sub.Size(), want)
			}
			return nil
		})
	}
}
