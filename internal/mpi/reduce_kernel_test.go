package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reduce kernels of datatype.go are checked against the per-element
// implementation they replaced, kept here as the reference: one switch on
// op per element, one byte at a time for Byte.

func combineInt(a, b int64, op Op) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
}

func combineUint(a, b uint64, op Op) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
}

func combineFloat(a, b float64, op Op) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
}

// scalarReduceInto is the oracle: acc = op(acc, in), element by element.
// The caller guarantees equal lengths and a whole number of elements.
func scalarReduceInto(acc, in []byte, dt Datatype, op Op) {
	n := len(acc) / dt.Size()
	switch dt {
	case Byte:
		for i := 0; i < n; i++ {
			acc[i] = byte(combineInt(int64(acc[i]), int64(in[i]), op))
		}
	case Int32:
		for i := 0; i < n; i++ {
			a := int32(binary.LittleEndian.Uint32(acc[4*i:]))
			b := int32(binary.LittleEndian.Uint32(in[4*i:]))
			binary.LittleEndian.PutUint32(acc[4*i:], uint32(int32(combineInt(int64(a), int64(b), op))))
		}
	case Int64:
		for i := 0; i < n; i++ {
			a := int64(binary.LittleEndian.Uint64(acc[8*i:]))
			b := int64(binary.LittleEndian.Uint64(in[8*i:]))
			binary.LittleEndian.PutUint64(acc[8*i:], uint64(combineInt(a, b, op)))
		}
	case Uint64:
		for i := 0; i < n; i++ {
			a := binary.LittleEndian.Uint64(acc[8*i:])
			b := binary.LittleEndian.Uint64(in[8*i:])
			binary.LittleEndian.PutUint64(acc[8*i:], combineUint(a, b, op))
		}
	case Float64:
		for i := 0; i < n; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[8*i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
			binary.LittleEndian.PutUint64(acc[8*i:], math.Float64bits(combineFloat(a, b, op)))
		}
	}
}

var (
	allDatatypes = []Datatype{Byte, Int32, Int64, Uint64, Float64}
	allOps       = []Op{OpSum, OpMax, OpMin}
)

// isNaNBits reports whether the float64 with these bits is a NaN.
func isNaNBits(u uint64) bool { return u&^(1<<63) > 0x7ff<<52 }

// sameReduction compares a kernel result with the oracle's, bit for bit —
// except where a float64 sum adds two NaNs: which payload survives is the
// compiler's choice of operand order (Go treats float addition as
// commutative), so there the test asks for a NaN and no more.
func sameReduction(got, want, a, b []byte, dt Datatype, op Op) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if dt != Float64 || op != OpSum {
		return fmt.Errorf("got %x, want %x", got, want)
	}
	le := binary.LittleEndian
	for i := 0; i+8 <= len(got); i += 8 {
		g, w := le.Uint64(got[i:]), le.Uint64(want[i:])
		if g == w {
			continue
		}
		if !(isNaNBits(le.Uint64(a[i:])) && isNaNBits(le.Uint64(b[i:])) && isNaNBits(g)) {
			return fmt.Errorf("element %d: got %016x, want %016x", i/8, g, w)
		}
	}
	return nil
}

// checkKernel runs reduceTo on a and b three ways — into a distinct dst,
// into a copy of a (dst == a) and into a copy of b (dst == b), each new
// buffer starting off bytes into its backing array — and compares every
// result with the oracle's.
func checkKernel(a, b []byte, off int, dt Datatype, op Op) error {
	want := append([]byte(nil), a...)
	scalarReduceInto(want, b, dt, op)
	at := func(src []byte) []byte {
		back := make([]byte, off+len(src))
		copy(back[off:], src)
		return back[off:]
	}
	for _, alias := range []string{"dst distinct", "dst == a", "dst == b"} {
		x, y, dst := a, b, at(make([]byte, len(a)))
		switch alias {
		case "dst == a":
			x = at(a)
			dst = x
		case "dst == b":
			y = at(b)
			dst = y
		}
		if err := reduceTo(dst, x, y, dt, op); err != nil {
			return fmt.Errorf("%s: %w", alias, err)
		}
		if err := sameReduction(dst, want, a, b, dt, op); err != nil {
			return fmt.Errorf("%s: %w", alias, err)
		}
	}
	return nil
}

// TestReduceKernelsMatchScalar covers every datatype × op at every length
// from 0 to 130 elements and every sub-slice offset 0…7, so each kernel
// meets unaligned heads, whole windows and every tail length, with the
// result in a buffer of its own and in either operand.
func TestReduceKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const maxElems = 130
	backA := make([]byte, 8+maxElems*8)
	backB := make([]byte, 8+maxElems*8)
	for _, dt := range allDatatypes {
		es := dt.Size()
		for _, op := range allOps {
			for elems := 0; elems <= maxElems; elems++ {
				for off := 0; off < 8; off++ {
					rng.Read(backA)
					rng.Read(backB)
					a, b := backA[off:off+elems*es], backB[7-off:7-off+elems*es]
					if err := checkKernel(a, b, off, dt, op); err != nil {
						t.Fatalf("%v %v elems=%d off=%d: %v", dt, op, elems, off, err)
					}
				}
			}
		}
	}
}

// byteEdges are the lane values around the SWAR kernels' carry and borrow
// boundaries.
var byteEdges = []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}

// floatEdges are the float64 bit patterns whose max/min/sum are special:
// signed zeros, infinities, quiet and signalling NaNs with payloads of both
// signs, the extreme finite values and a denormal.
var floatEdges = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000001, 0xfff8000000000002, 0x7ff0000000000003, 0x7ffc0000deadbeef, // NaNs
	0x3ff0000000000000, 0xbff0000000000000, // ±1
	0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
	0x0000000000000001, // smallest denormal
}

// edgePairs returns two equally long buffers holding every ordered pair of
// the edge values of dt, element by element.
func edgePairs(dt Datatype) (a, b []byte) {
	var vals [][]byte
	switch dt {
	case Byte:
		for _, v := range byteEdges {
			vals = append(vals, []byte{v})
		}
	case Int32:
		for _, v := range []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff} {
			vals = append(vals, binary.LittleEndian.AppendUint32(nil, v))
		}
	case Int64, Uint64:
		for _, v := range []uint64{0, 1, 0x7fffffffffffffff, 0x8000000000000000, 0xffffffffffffffff} {
			vals = append(vals, binary.LittleEndian.AppendUint64(nil, v))
		}
	case Float64:
		for _, v := range floatEdges {
			vals = append(vals, binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	for _, x := range vals {
		for _, y := range vals {
			a, b = append(a, x...), append(b, y...)
		}
	}
	return a, b
}

// TestReduceKernelEdgeValues runs every ordered pair of edge values through
// every op: for Byte that is 0x00/0x7f/0x80/0xff and their neighbours in
// every lane position, equal lanes included (the pair list is 49 bytes long,
// so pairs land on all eight lanes, in one whole window and in the tail).
func TestReduceKernelEdgeValues(t *testing.T) {
	for _, dt := range allDatatypes {
		a, b := edgePairs(dt)
		for _, op := range allOps {
			if err := checkKernel(a, b, 0, dt, op); err != nil {
				t.Errorf("%v %v: %v", dt, op, err)
			}
		}
	}
}

// TestReduceOpsCommuteExceptNaNSum records why no collective may swap the
// operands of a fold: every op commutes bit for bit on every edge pattern
// except the float64 sum of two NaNs, where the surviving payload follows
// the operand order (and the compiler may pick either). An interior tree
// node therefore cannot fold its own contribution into a child's message
// buffer instead of the other way round without changing result bits.
func TestReduceOpsCommuteExceptNaNSum(t *testing.T) {
	for _, dt := range allDatatypes {
		a, b := edgePairs(dt)
		for _, op := range allOps {
			ab := append([]byte(nil), a...)
			scalarReduceInto(ab, b, dt, op)
			ba := append([]byte(nil), b...)
			scalarReduceInto(ba, a, dt, op)
			if err := sameReduction(ab, ba, a, b, dt, op); err != nil {
				t.Errorf("%v %v does not commute: %v", dt, op, err)
			}
		}
	}
}

// FuzzReduceInto feeds arbitrary operands, offsets and (dt, op) pairs to
// the kernels: valid pairs must agree with the oracle whether the result
// goes to a buffer of its own, to a or to b; invalid ones must be rejected
// without touching the result buffer. The seed corpus — lane, sign and NaN
// edge patterns per datatype, unknown dt/op, an odd split, a window plus a
// tail — is checked in under testdata/fuzz/FuzzReduceInto.
func FuzzReduceInto(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0x00, 0x7f, 0x80, 0xff, 0x80, 0x7f, 0xff, 0x00, 0x01, 0xff, 0xff, 0x01, 0x7f, 0x80, 0x00, 0x00, 0x55, 0xaa}, uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dtRaw, opRaw, off uint8) {
		dt, op := Datatype(dtRaw), Op(opRaw)
		if checkReduce("", nil, nil, false, dt, op) != nil {
			acc := append([]byte(nil), raw...)
			if err := reduceTo(acc, acc, raw, dt, op); err == nil {
				t.Fatalf("reduceTo accepted dt=%d op=%d", dtRaw, opRaw)
			}
			if !bytes.Equal(acc, raw) {
				t.Fatalf("rejected reduceTo(dt=%d op=%d) modified acc", dtRaw, opRaw)
			}
			return
		}
		// Split raw into two equally long operands of whole elements.
		es := dt.Size()
		n := len(raw) / (2 * es) * es
		if err := checkKernel(raw[:n], raw[n:2*n], int(off%8), dt, op); err != nil {
			t.Fatalf("%v %v n=%d off=%d: %v", dt, op, n, off%8, err)
		}
		acc := append([]byte(nil), raw[:n]...)
		if err := reduceTo(acc, acc, raw[n:], dt, op); len(raw[n:]) != n && err == nil {
			t.Fatalf("%v %v: operands of %d and %d bytes accepted", dt, op, n, len(raw[n:]))
		}
	})
}

var reduceKernelSink byte

// BenchmarkReduceKernel measures the fold itself, per datatype × op at the
// two payload sizes of bench/'s coll-payload workload: in place (dst == a,
// every fold after a tree node's first), into a buffer of its own (/to, the
// fused first fold) and, on the same inputs, the scalar oracle above — the
// simplest honest alternative (/scalar). Every row starts from the same
// accumulator; max and min converge on the first iteration, so those rows
// then run with perfectly predicted branches, which flatters the branchy
// loops, the oracle most.
func BenchmarkReduceKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{8 << 10, 128 << 10} {
		start, acc, in := make([]byte, size), make([]byte, size), make([]byte, size)
		rng.Read(start)
		rng.Read(in)
		for _, dt := range allDatatypes {
			for _, op := range allOps {
				row := func(fold func()) func(*testing.B) {
					return func(b *testing.B) {
						copy(acc, start)
						b.SetBytes(int64(size))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							fold()
						}
						reduceKernelSink += acc[0]
					}
				}
				to := func(dst, a []byte) func() {
					return func() {
						if err := reduceTo(dst, a, in, dt, op); err != nil {
							b.Fatal(err)
						}
					}
				}
				name := fmt.Sprintf("%v/%v/%dKiB", dt, op, size>>10)
				b.Run(name, row(to(acc, acc)))
				b.Run(name+"/to", row(to(acc, start)))
				b.Run(name+"/scalar", row(func() { scalarReduceInto(acc, in, dt, op) }))
			}
		}
	}
}
