package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype identifies the element type of a reduction buffer.
type Datatype int

// Supported datatypes.
const (
	Byte Datatype = iota
	Int32
	Int64
	Uint64
	Float64
)

// datatypes is the name and element size of every supported datatype.
var datatypes = [...]struct {
	name string
	size int
}{Byte: {"byte", 1}, Int32: {"int32", 4}, Int64: {"int64", 8}, Uint64: {"uint64", 8}, Float64: {"float64", 8}}

func (dt Datatype) known() bool { return dt >= 0 && int(dt) < len(datatypes) }

// Size returns the element size in bytes.
func (dt Datatype) Size() int {
	if !dt.known() {
		panic(fmt.Sprintf("mpi: unknown datatype %d", int(dt)))
	}
	return datatypes[dt].size
}

// String returns the datatype name.
func (dt Datatype) String() string {
	if !dt.known() {
		return fmt.Sprintf("Datatype(%d)", int(dt))
	}
	return datatypes[dt].name
}

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

var opNames = [...]string{OpSum: "sum", OpMax: "max", OpMin: "min"}

func (op Op) known() bool { return op >= 0 && int(op) < len(opNames) }

// String returns the operator name.
func (op Op) String() string {
	if !op.known() {
		return fmt.Sprintf("Op(%d)", int(op))
	}
	return opNames[op]
}

// checkReduce validates a reduction named what over buffers a and b: a known
// (dt, op), whole elements and, when both buffers are significant, equal
// lengths. It needs only local knowledge, so every member of a reducing
// collective calls it before its first message and all of them fail alike.
func checkReduce(what string, a, b []byte, both bool, dt Datatype, op Op) error {
	if !dt.known() || !op.known() {
		return fmt.Errorf("mpi: %s with unknown datatype or op (%v, %v)", what, dt, op)
	}
	if both && len(a) != len(b) {
		return fmt.Errorf("mpi: %s buffers differ in length (%d vs %d)", what, len(a), len(b))
	}
	if es := dt.Size(); len(a)%es != 0 {
		return fmt.Errorf("mpi: %s buffer of %d bytes is not a multiple of %s size %d", what, len(a), dt, es)
	}
	return nil
}

// reduceTo applies dst = op(a, b) elementwise, a's element on the left. a
// and b must hold the same whole number of dt elements and dst as many
// bytes; dst may be a or b itself, but must not overlap them otherwise. It
// dispatches once on (dt, op) to a kernel; elements are little-endian.
func reduceTo(dst, a, b []byte, dt Datatype, op Op) error {
	if err := checkReduce("reduce", a, b, true, dt, op); err != nil {
		return err
	}
	if len(dst) != len(a) {
		return fmt.Errorf("mpi: reduce result buffer has %d bytes, want %d", len(dst), len(a))
	}
	k := kernels[dt][op]
	n := len(dst) &^ (window - 1)
	k.fold(dst[:n], a[:n], b[:n], k.arg)
	if n < len(dst) {
		// The tail rides through the same kernel, padded to one window.
		var x, y [window]byte
		copy(x[:], a[n:])
		copy(y[:], b[n:])
		k.fold(x[:], x[:], y[:], k.arg)
		copy(dst[n:], x[:])
	}
	return nil
}

// window is the bytes one kernel iteration folds: four 64-bit words.
const window = 32

// A kernel applies dst = op(a, b) to whole windows — dst, a and b are
// equally long multiples of window — four words per iteration over
// [i:i+32:i+32] slices, so one index moves and the compiler drops the
// per-word bounds checks. Every kernel reads a word of a and b before it
// writes that word of dst, which is what lets dst be a or b. arg is the
// kernel's lane mask, bias or flip.
type kernel struct {
	fold func(dst, a, b []byte, arg uint64)
	arg  uint64
}

// kernels is the kernel of each (datatype, op). Max and min share one
// kernel per integer type: complementing the bias reverses the order it
// compares in.
var kernels = [...][3]kernel{
	Byte:    {OpSum: {sumLanes, laneHi}, OpMax: {maxBytes, 0}, OpMin: {maxBytes, ^uint64(0)}},
	Int32:   {OpSum: {sumLanes, laneHi4}, OpMax: {maxInt32, 1 << 31}, OpMin: {maxInt32, 1<<31 - 1}},
	Int64:   {OpSum: {sumWord64, 0}, OpMax: {maxWord64, 1 << 63}, OpMin: {maxWord64, 1<<63 - 1}},
	Uint64:  {OpSum: {sumWord64, 0}, OpMax: {maxWord64, 0}, OpMin: {maxWord64, ^uint64(0)}},
	Float64: {OpSum: {sumFloat64, 0}, OpMax: {maxFloat64, 0}, OpMin: {minFloat64, 0}},
}

// Lane masks: the high bit of each byte lane, and of each int32 lane, of a
// uint64.
const (
	laneHi  = 0x8080808080808080
	laneHi4 = 0x8000000080000000
)

// addLanes adds x and y lane by lane, modulo each lane's width: add the low
// bits of each lane, where no carry can leave the lane, then restore the
// high bits by xor. hi is the lane mask.
func addLanes(x, y, hi uint64) uint64 { return ((x &^ hi) + (y &^ hi)) ^ ((x ^ y) & hi) }

// sumLanes adds unsigned bytes (hi = laneHi) or int32s (hi = laneHi4)
// eight or two lanes to a word (SWAR).
func sumLanes(dst, a, b []byte, hi uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], addLanes(le.Uint64(x[0:]), le.Uint64(y[0:]), hi))
		le.PutUint64(d[8:], addLanes(le.Uint64(x[8:]), le.Uint64(y[8:]), hi))
		le.PutUint64(d[16:], addLanes(le.Uint64(x[16:]), le.Uint64(y[16:]), hi))
		le.PutUint64(d[24:], addLanes(le.Uint64(x[24:]), le.Uint64(y[24:]), hi))
	}
}

// maxLanes keeps, byte lane by byte lane, the larger unsigned byte of x and
// y — the smaller one when flip is all ones. (x|hi)-(y&^hi) never borrows
// across lanes and keeps a lane's high bit iff x's low seven bits are >=
// y's; where the high bits of x and y differ, they decide instead.
func maxLanes(x, y, flip uint64) uint64 {
	ge := ((x &^ y) | (^(x ^ y) & ((x | laneHi) - (y &^ laneHi)))) & laneHi
	keep := (ge>>7)*0xff ^ flip // 0xff in every lane that keeps x
	return x&keep | y&^keep
}

// maxBytes is the max (flip 0) or min (flip all ones) of unsigned bytes,
// eight lanes to a word.
func maxBytes(dst, a, b []byte, flip uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], maxLanes(le.Uint64(x[0:]), le.Uint64(y[0:]), flip))
		le.PutUint64(d[8:], maxLanes(le.Uint64(x[8:]), le.Uint64(y[8:]), flip))
		le.PutUint64(d[16:], maxLanes(le.Uint64(x[16:]), le.Uint64(y[16:]), flip))
		le.PutUint64(d[24:], maxLanes(le.Uint64(x[24:]), le.Uint64(y[24:]), flip))
	}
}

// max32 returns whichever of x and y is larger once both are xored with
// bias (x on a tie): the sign bit turns the signed order into the unsigned
// one, and its complement reverses it.
func max32(x, y, bias uint32) uint32 {
	if y^bias > x^bias {
		return y
	}
	return x
}

// max32x2 is max32 on both int32 lanes of a little-endian word.
func max32x2(x, y uint64, bias uint32) uint64 {
	return uint64(max32(uint32(x), uint32(y), bias)) | uint64(max32(uint32(x>>32), uint32(y>>32), bias))<<32
}

// maxInt32 is the max (bias 1<<31) or min (bias 1<<31-1) of int32s.
func maxInt32(dst, a, b []byte, bias uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], max32x2(le.Uint64(x[0:]), le.Uint64(y[0:]), uint32(bias)))
		le.PutUint64(d[8:], max32x2(le.Uint64(x[8:]), le.Uint64(y[8:]), uint32(bias)))
		le.PutUint64(d[16:], max32x2(le.Uint64(x[16:]), le.Uint64(y[16:]), uint32(bias)))
		le.PutUint64(d[24:], max32x2(le.Uint64(x[24:]), le.Uint64(y[24:]), uint32(bias)))
	}
}

// sumWord64 adds int64 or uint64 elements, one addition for both.
func sumWord64(dst, a, b []byte, _ uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], le.Uint64(x[0:])+le.Uint64(y[0:]))
		le.PutUint64(d[8:], le.Uint64(x[8:])+le.Uint64(y[8:]))
		le.PutUint64(d[16:], le.Uint64(x[16:])+le.Uint64(y[16:]))
		le.PutUint64(d[24:], le.Uint64(x[24:])+le.Uint64(y[24:]))
	}
}

// max64 is max32 for 64-bit words.
func max64(x, y, bias uint64) uint64 {
	if y^bias > x^bias {
		return y
	}
	return x
}

// maxWord64 is the max or min of int64s (bias 1<<63 or 1<<63-1) or of
// uint64s (bias 0 or all ones).
func maxWord64(dst, a, b []byte, bias uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], max64(le.Uint64(x[0:]), le.Uint64(y[0:]), bias))
		le.PutUint64(d[8:], max64(le.Uint64(x[8:]), le.Uint64(y[8:]), bias))
		le.PutUint64(d[16:], max64(le.Uint64(x[16:]), le.Uint64(y[16:]), bias))
		le.PutUint64(d[24:], max64(le.Uint64(x[24:]), le.Uint64(y[24:]), bias))
	}
}

// addFloat64 adds the float64s with bits x and y.
func addFloat64(x, y uint64) uint64 {
	return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
}

func sumFloat64(dst, a, b []byte, _ uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+window <= len(dst); i += window {
		d, x, y := dst[i:i+window:i+window], a[i:i+window:i+window], b[i:i+window:i+window]
		le.PutUint64(d[0:], addFloat64(le.Uint64(x[0:]), le.Uint64(y[0:])))
		le.PutUint64(d[8:], addFloat64(le.Uint64(x[8:]), le.Uint64(y[8:])))
		le.PutUint64(d[16:], addFloat64(le.Uint64(x[16:]), le.Uint64(y[16:])))
		le.PutUint64(d[24:], addFloat64(le.Uint64(x[24:]), le.Uint64(y[24:])))
	}
}

// maxFloat64 and minFloat64 fold with math.Max and math.Min, whose NaN,
// infinity and signed-zero rules the result must follow bit for bit. They
// stay one element per iteration: the call is the cost.
func maxFloat64(dst, a, b []byte, _ uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+8 <= len(dst); i += 8 {
		x, y := math.Float64frombits(le.Uint64(a[i:])), math.Float64frombits(le.Uint64(b[i:]))
		le.PutUint64(dst[i:], math.Float64bits(math.Max(x, y)))
	}
}

func minFloat64(dst, a, b []byte, _ uint64) {
	le := binary.LittleEndian
	a, b = a[:len(dst)], b[:len(dst)]
	for i := 0; i+8 <= len(dst); i += 8 {
		x, y := math.Float64frombits(le.Uint64(a[i:])), math.Float64frombits(le.Uint64(b[i:]))
		le.PutUint64(dst[i:], math.Float64bits(math.Min(x, y)))
	}
}

// EncodeFloat64s packs a float64 slice into a fresh byte buffer.
func EncodeFloat64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeFloat64s unpacks a byte buffer written by EncodeFloat64s.
func DecodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// EncodeUint64s packs a uint64 slice into a fresh byte buffer.
func EncodeUint64s(v []uint64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
	return out
}

// DecodeUint64s unpacks a byte buffer written by EncodeUint64s.
func DecodeUint64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// EncodeInts packs an int slice as int64 little-endian.
func EncodeInts(v []int) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(int64(x)))
	}
	return out
}

// DecodeInts unpacks a byte buffer written by EncodeInts.
func DecodeInts(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}
