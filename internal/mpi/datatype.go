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

// reduceInto applies acc = op(acc, in) elementwise. Both buffers must hold
// a whole number of dt elements and have equal length. It dispatches once
// on (dt, op) and runs one tight loop per pair; elements are little-endian.
func reduceInto(acc, in []byte, dt Datatype, op Op) error {
	if err := checkReduce("reduce", acc, in, true, dt, op); err != nil {
		return err
	}
	switch dt {
	case Byte:
		reduceBytes(acc, in, op)
	case Int32:
		reduceInt32(acc, in, op)
	case Int64:
		reduceWord64(acc, in, op, 1<<63)
	case Uint64:
		reduceWord64(acc, in, op, 0)
	case Float64:
		reduceFloat64(acc, in, op)
	}
	return nil
}

// laneHi is the high bit of each of the eight byte lanes of a uint64.
const laneHi = 0x8080808080808080

// reduceBytes folds unsigned bytes eight lanes at a time in a uint64 (SWAR).
func reduceBytes(acc, in []byte, op Op) {
	le := binary.LittleEndian
	if op == OpSum {
		for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
			// Add the low seven bits of each lane, where no carry can leave
			// the lane, then restore the high bits by xor.
			a, b := le.Uint64(acc), le.Uint64(in)
			le.PutUint64(acc, ((a&^laneHi)+(b&^laneHi))^((a^b)&laneHi))
		}
	} else {
		var flip uint64 // max keeps a where a >= b, min where it is not
		if op == OpMin {
			flip = ^flip
		}
		for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
			// Lane-wise a >= b: (a|hi)-(b&^hi) never borrows across lanes
			// and keeps a lane's high bit iff a's low seven bits are >= b's;
			// where the high bits of a and b differ, they decide instead.
			a, b := le.Uint64(acc), le.Uint64(in)
			ge := ((a &^ b) | (^(a ^ b) & ((a | laneHi) - (b &^ laneHi)))) & laneHi
			keep := (ge>>7)*0xff ^ flip // 0xff in every lane that keeps a
			le.PutUint64(acc, (a&keep)|(b&^keep))
		}
	}
	if len(acc) > 0 {
		// The tail rides through the same lanes, padded to one word.
		var a, b [8]byte
		copy(a[:], acc)
		copy(b[:], in)
		reduceBytes(a[:], b[:], op)
		copy(acc, a[:])
	}
}

// reduceInt32 folds int32 elements; xor with the sign bit turns the signed
// order into the unsigned one.
func reduceInt32(acc, in []byte, op Op) {
	le := binary.LittleEndian
	if op == OpSum {
		for ; len(acc) >= 4 && len(in) >= 4; acc, in = acc[4:], in[4:] {
			le.PutUint32(acc, le.Uint32(acc)+le.Uint32(in))
		}
		return
	}
	for ; len(acc) >= 4 && len(in) >= 4; acc, in = acc[4:], in[4:] {
		v, b := le.Uint32(acc), le.Uint32(in)
		if (b^1<<31 > v^1<<31) == (op == OpMax) {
			v = b
		}
		le.PutUint32(acc, v)
	}
}

// reduceWord64 folds int64 (bias 1<<63, which turns the signed order into the
// unsigned one) or uint64 (bias 0) elements; both sum by the same addition.
func reduceWord64(acc, in []byte, op Op, bias uint64) {
	le := binary.LittleEndian
	if op == OpSum {
		for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
			le.PutUint64(acc, le.Uint64(acc)+le.Uint64(in))
		}
		return
	}
	for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
		v, b := le.Uint64(acc), le.Uint64(in)
		if (b^bias > v^bias) == (op == OpMax) {
			v = b
		}
		le.PutUint64(acc, v)
	}
}

// reduceFloat64 folds float64 elements; max and min are math.Max and
// math.Min, NaN, infinity and signed-zero rules included.
func reduceFloat64(acc, in []byte, op Op) {
	le := binary.LittleEndian
	if op == OpSum {
		for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
			a, b := math.Float64frombits(le.Uint64(acc)), math.Float64frombits(le.Uint64(in))
			le.PutUint64(acc, math.Float64bits(a+b))
		}
		return
	}
	pick := math.Max
	if op == OpMin {
		pick = math.Min
	}
	for ; len(acc) >= 8 && len(in) >= 8; acc, in = acc[8:], in[8:] {
		a, b := math.Float64frombits(le.Uint64(acc)), math.Float64frombits(le.Uint64(in))
		le.PutUint64(acc, math.Float64bits(pick(a, b)))
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
