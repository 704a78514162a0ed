// Package sparsemat holds the sparse communication-matrix representation
// shared by the monitoring data path: per-source rows of (dst, count,
// bytes) triples sorted by destination, plus the compact wire format the
// monitoring gathers ship them in. Real affinity matrices (stencils, CG
// grids) are overwhelmingly sparse — a 2D stencil rank talks to ~4 peers
// regardless of world size — so storing and transporting only the touched
// peers turns the O(n²) gather payload into O(nnz).
//
// Wire format of one row (little-endian unsigned varints throughout):
//
//	uvarint nnz
//	nnz × { uvarint dstGap, uvarint count, uvarint bytes }
//
// where dstGap is the destination rank for the first entry and the
// difference to the previous destination for the rest (entries are sorted
// strictly ascending, so every later gap is ≥ 1). Delta coding keeps
// neighbour-heavy rows (stencils) at one or two bytes per destination.
package sparsemat

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row is one source rank's nonzero per-destination monitoring data. The
// three slices are parallel and sorted by strictly ascending Dst; an entry
// may have a zero count or zero bytes but not both.
type Row struct {
	Dst []int32
	Cnt []uint64
	Byt []uint64
}

// NNZ returns the number of entries in the row.
func (r Row) NNZ() int { return len(r.Dst) }

// Validate checks the row invariants: parallel slices, destinations
// strictly ascending within [0, n) (any n < 0 skips the upper bound).
func (r Row) Validate(n int) error {
	if len(r.Cnt) != len(r.Dst) || len(r.Byt) != len(r.Dst) {
		return fmt.Errorf("sparsemat: row slices have lengths %d/%d/%d", len(r.Dst), len(r.Cnt), len(r.Byt))
	}
	prev := int32(-1)
	for i, d := range r.Dst {
		if d <= prev {
			return fmt.Errorf("sparsemat: destinations not strictly ascending at entry %d (%d after %d)", i, d, prev)
		}
		if n >= 0 && int(d) >= n {
			return fmt.Errorf("sparsemat: destination %d outside world of %d", d, n)
		}
		prev = d
	}
	return nil
}

// AppendRow appends the wire encoding of the row to buf and returns the
// extended buffer. The row must satisfy Validate.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Dst)))
	prev := int32(0)
	for i, d := range r.Dst {
		gap := d
		if i > 0 {
			gap = d - prev
		}
		prev = d
		buf = binary.AppendUvarint(buf, uint64(gap))
		buf = binary.AppendUvarint(buf, r.Cnt[i])
		buf = binary.AppendUvarint(buf, r.Byt[i])
	}
	return buf
}

// EncodedSize returns the exact wire size of the row in bytes.
func EncodedSize(r Row) int {
	s := uvarintLen(uint64(len(r.Dst)))
	prev := int32(0)
	for i, d := range r.Dst {
		gap := d
		if i > 0 {
			gap = d - prev
		}
		prev = d
		s += uvarintLen(uint64(gap)) + uvarintLen(r.Cnt[i]) + uvarintLen(r.Byt[i])
	}
	return s
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeRow parses one wire-encoded row from the front of b, returning the
// row, the number of bytes consumed and any format error. n bounds the
// destination ranks (pass a negative n to bound them by int32 only). An
// accepted row passes Validate(n), and AppendRow re-encodes it to exactly
// the bytes consumed.
func DecodeRow(b []byte, n int) (Row, int, error) {
	nnz, off := uvarint(b)
	if off <= 0 {
		return Row{}, 0, fmt.Errorf("sparsemat: malformed row header")
	}
	if n >= 0 && nnz > uint64(n) {
		return Row{}, 0, fmt.Errorf("sparsemat: row claims %d entries for a world of %d", nnz, n)
	}
	// Every entry takes at least three bytes, so a larger claim is
	// truncated and must not size the allocation below.
	if nnz > uint64(len(b)-off)/3 {
		return Row{}, 0, fmt.Errorf("sparsemat: row claims %d entries in %d bytes", nnz, len(b)-off)
	}
	end := uint64(math.MaxInt32) + 1 // one past the largest destination
	if n >= 0 && uint64(n) < end {
		end = uint64(n)
	}
	r := Row{
		Dst: make([]int32, nnz),
		Cnt: make([]uint64, nnz),
		Byt: make([]uint64, nnz),
	}
	for i := 0; i < int(nnz); i++ {
		gap, k := uvarint(b[off:])
		if k <= 0 {
			return Row{}, 0, fmt.Errorf("sparsemat: malformed destination of entry %d", i)
		}
		off += k
		// The destination is base+gap, the first gap or the previous
		// destination plus a gap ≥ 1; gap < end-base keeps it below end
		// without overflowing.
		var base uint64
		if i > 0 {
			if gap == 0 {
				return Row{}, 0, fmt.Errorf("sparsemat: zero destination gap at entry %d", i)
			}
			base = uint64(r.Dst[i-1])
		}
		if gap >= end-base {
			return Row{}, 0, fmt.Errorf("sparsemat: destination %d+%d of entry %d outside [0, %d)", base, gap, i, end)
		}
		r.Dst[i] = int32(base + gap)
		if r.Cnt[i], k = uvarint(b[off:]); k <= 0 {
			return Row{}, 0, fmt.Errorf("sparsemat: malformed count of entry %d", i)
		}
		off += k
		if r.Byt[i], k = uvarint(b[off:]); k <= 0 {
			return Row{}, 0, fmt.Errorf("sparsemat: malformed bytes of entry %d", i)
		}
		off += k
	}
	return r, off, nil
}

// uvarint reads the uvarint at the front of b like binary.Uvarint, but
// reports k = 0 for a padded (non-shortest) encoding, which AppendRow never
// writes.
func uvarint(b []byte) (v uint64, k int) {
	v, k = binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return v, k
}

// Matrix is a full sparse communication matrix: Rows[i] holds the nonzero
// entries of source rank i. The zero row (no entries) is valid.
type Matrix struct {
	N    int
	Rows []Row
}

// New returns an empty n-by-n sparse matrix (all rows empty).
func New(n int) *Matrix {
	return &Matrix{N: n, Rows: make([]Row, n)}
}

// NNZ returns the number of nonzero (src, dst) entries.
func (m *Matrix) NNZ() int {
	s := 0
	for i := range m.Rows {
		s += len(m.Rows[i].Dst)
	}
	return s
}

// At returns the (count, bytes) entry of the directed pair (i, j), zeroes
// when absent.
func (m *Matrix) At(i, j int) (cnt, byt uint64) {
	r := m.Rows[i]
	lo, hi := 0, len(r.Dst)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(r.Dst[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Dst) && int(r.Dst[lo]) == j {
		return r.Cnt[lo], r.Byt[lo]
	}
	return 0, 0
}

// Has reports whether the directed pair (i, j) has an entry — present with
// zero values and absent are distinguishable, unlike At.
func (m *Matrix) Has(i, j int) bool {
	if i < 0 || i >= len(m.Rows) || j < 0 || j >= m.N {
		return false
	}
	r := m.Rows[i]
	lo, hi := 0, len(r.Dst)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(r.Dst[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.Dst) && int(r.Dst[lo]) == j
}

// Dense materializes the row-major n-by-n count and byte matrices —
// exactly what the dense gather APIs historically returned, so small-n
// callers stay bit-identical. O(n²) memory; intended for small n.
func (m *Matrix) Dense() (counts, bytes []uint64) {
	counts = make([]uint64, m.N*m.N)
	bytes = make([]uint64, m.N*m.N)
	for i := range m.Rows {
		r := m.Rows[i]
		base := i * m.N
		for k, d := range r.Dst {
			counts[base+int(d)] = r.Cnt[k]
			bytes[base+int(d)] = r.Byt[k]
		}
	}
	return counts, bytes
}

// FromDense builds the sparse matrix of a row-major n-by-n count/byte
// matrix pair (entries where either is nonzero).
func FromDense(counts, bytes []uint64, n int) (*Matrix, error) {
	if len(counts) != n*n || len(bytes) != n*n {
		return nil, fmt.Errorf("sparsemat: %d/%d entries is not %dx%d", len(counts), len(bytes), n, n)
	}
	m := New(n)
	for i := 0; i < n; i++ {
		var row Row
		for j := 0; j < n; j++ {
			c, b := counts[i*n+j], bytes[i*n+j]
			if c|b == 0 {
				continue
			}
			row.Dst = append(row.Dst, int32(j))
			row.Cnt = append(row.Cnt, c)
			row.Byt = append(row.Byt, b)
		}
		m.Rows[i] = row
	}
	return m, nil
}

// WireBytes returns the total wire size of every row of the matrix.
func (m *Matrix) WireBytes() int {
	s := 0
	for i := range m.Rows {
		s += EncodedSize(m.Rows[i])
	}
	return s
}
