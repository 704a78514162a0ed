package sparsemat

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

type pair struct {
	i, j     int
	bij, bji uint64
}

type cell struct {
	i, j int
	b    uint64
}

func collectPairs(t *testing.T, m *Matrix) []pair {
	t.Helper()
	var out []pair
	err := m.VisitPairs(func(i, j int, bij, bji uint64) error {
		if i >= j {
			t.Fatalf("pair visitor emitted (%d,%d) with i >= j", i, j)
		}
		out = append(out, pair{i, j, bij, bji})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectRows(t *testing.T, m *Matrix) []cell {
	t.Helper()
	var out []cell
	if err := m.VisitRows(func(i, j int, b uint64) error {
		out = append(out, cell{i, j, b})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// bytesMatrix is the matrix of a row-major bytes plane: an entry, with the
// bytes as its count, wherever the bytes are nonzero.
func bytesMatrix(t *testing.T, bytes []uint64, n int) *Matrix {
	t.Helper()
	m, err := FromDense(bytes, bytes, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bruteRows and brutePairs are the reference walks VisitRows and
// VisitPairs must agree with, O(n²) over dense tables. bruteRows reads the
// densified matrix, where an entry shows when its bytes are nonzero.
// brutePairs walks every row's entries in destination order, in the order
// VisitPairs documents: row i's entry for j > i emits (i, j) with the bytes
// both ways, and its entry for j < i emits (j, i) only when row j has no
// entry for i, an entry with zero bytes (or zero everything) included.
func bruteRows(m *Matrix) []cell {
	_, bytes := m.Dense()
	var out []cell
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if b := bytes[i*m.N+j]; b != 0 {
				out = append(out, cell{i, j, b})
			}
		}
	}
	return out
}

func brutePairs(m *Matrix) []pair {
	n := m.N
	has := make([]bool, n*n)
	bytes := make([]uint64, n*n)
	for i, r := range m.Rows {
		for k, d := range r.Dst {
			has[i*n+int(d)] = true
			bytes[i*n+int(d)] = r.Byt[k]
		}
	}
	var out []pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case !has[i*n+j] || j == i:
			case j > i:
				out = append(out, pair{i, j, bytes[i*n+j], bytes[j*n+i]})
			case !has[j*n+i]:
				out = append(out, pair{j, i, 0, bytes[i*n+j]})
			}
		}
	}
	return out
}

// shapedMatrix is a random valid matrix of order n whose rows take the
// shapes a pair visitor can stumble on: entries above the diagonal only,
// below it only, a diagonal entry among others, dense, or none. One-way
// entries between them make mirror-only pairs. An entry carries a count
// and bytes, a count only, bytes only, or (when zeros is set) neither,
// which Validate allows.
func shapedMatrix(rng *rand.Rand, n int, zeros bool) *Matrix {
	m := New(n)
	for i := range m.Rows {
		shape := rng.Intn(5)
		r := &m.Rows[i]
		for j := 0; j < n; j++ {
			var keep bool
			switch shape {
			case 0:
				keep = j > i && rng.Intn(3) == 0
			case 1:
				keep = j < i && rng.Intn(3) == 0
			case 2:
				keep = j == i || rng.Intn(4) == 0
			case 3:
				keep = rng.Intn(2) == 0
			}
			if !keep {
				continue
			}
			var cnt, byt uint64
			switch v := rng.Intn(8); {
			case v == 0 && zeros:
			case v < 3:
				cnt = uint64(1 + rng.Intn(3))
			case v == 3:
				byt = uint64(1 + rng.Intn(1<<16))
			default:
				cnt, byt = uint64(1+rng.Intn(5)), uint64(1+rng.Intn(1<<16))
			}
			r.Dst = append(r.Dst, int32(j))
			r.Cnt = append(r.Cnt, cnt)
			r.Byt = append(r.Byt, byt)
		}
	}
	return m
}

func TestVisitRows(t *testing.T) {
	got := collectRows(t, bytesMatrix(t, []uint64{
		0, 5, 0,
		3, 0, 0,
		0, 0, 9, // diagonal entries visit too
	}, 3))
	want := []cell{{0, 1, 5}, {1, 0, 3}, {2, 2, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestVisitPairs(t *testing.T) {
	got := collectPairs(t, bytesMatrix(t, []uint64{
		0, 5, 0,
		3, 0, 7,
		0, 0, 0,
	}, 3))
	want := []pair{{0, 1, 5, 3}, {1, 2, 7, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

// TestVisitMatchesBruteForce checks VisitRows, VisitPairs and TotalBytes
// against the O(n²) reference walks on seeded random matrices of orders up
// to 64. Their rows hold entries above the diagonal only, below it only,
// on it, count-only (zero-byte) and bytes-only entries, entries with no
// count and no bytes, and one-way pairs, and every one of those shapes
// must turn up. The walks must agree exactly: the same directed entries in
// the same order, the same pair emissions with the same arguments in the
// same order, the same total.
func TestVisitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var mirrorOnly, zeroByte, diagonal int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		m := shapedMatrix(rng, n, trial%2 == 1)
		if err := m.checkRows(); err != nil {
			t.Fatal(err)
		}
		if got, want := collectRows(t, m), bruteRows(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rows = %v, want %v", trial, got, want)
		}
		got, want := collectPairs(t, m), brutePairs(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (order %d): pair sequence\n%v\nwant\n%v", trial, n, got, want)
		}
		var sum uint64
		has := make([]bool, n*n)
		for i, r := range m.Rows {
			for k, d := range r.Dst {
				has[i*n+int(d)] = true
				sum += r.Byt[k]
				switch {
				case int(d) == i:
					diagonal++
				case r.Byt[k] == 0:
					zeroByte++
				}
			}
		}
		for i := range n {
			for j := range i {
				if has[i*n+j] && !has[j*n+i] {
					mirrorOnly++
				}
			}
		}
		if total, err := TotalBytes(m); err != nil || total != sum {
			t.Fatalf("trial %d: TotalBytes = %d, %v; want %d", trial, total, err, sum)
		}
	}
	if mirrorOnly == 0 || zeroByte == 0 || diagonal == 0 {
		t.Fatalf("shapes seen: %d mirror-only pairs, %d zero-byte entries, %d diagonal entries; want each", mirrorOnly, zeroByte, diagonal)
	}
}

// FuzzVisitPairs checks VisitPairs against brutePairs on arbitrary valid
// matrices of order up to 64: each three bytes of entries name a source, a
// destination and the entry's count and bytes (0 to 15 each, both zero
// allowed), the last of a repeated entry winning. The checked-in corpus
// holds a chain of upper entries, a mirror-only pair next to a two-way one,
// and diagonal, count-only and empty entries.
func FuzzVisitPairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, order uint8, entries []byte) {
		n := 1 + int(order)%64
		dense := make([]int, n*n) // 1 + the entry's value byte, 0 if absent
		for k := 0; k+2 < len(entries); k += 3 {
			i, j := int(entries[k])%n, int(entries[k+1])%n
			dense[i*n+j] = 1 + int(entries[k+2])
		}
		m := New(n)
		for i := range m.Rows {
			r := &m.Rows[i]
			for j, v := range dense[i*n : (i+1)*n] {
				if v != 0 {
					r.Dst = append(r.Dst, int32(j))
					r.Cnt = append(r.Cnt, uint64((v-1)>>4))
					r.Byt = append(r.Byt, uint64((v-1)&15))
				}
			}
		}
		var got []pair
		if err := m.VisitPairs(func(i, j int, bij, bji uint64) error {
			got = append(got, pair{i, j, bij, bji})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := brutePairs(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d: pair sequence\n%v\nwant\n%v", n, got, want)
		}
	})
}

func TestFromDenseBadShape(t *testing.T) {
	for _, tc := range []struct {
		entries, n int
	}{
		{5, 2},               // not n²
		{0, -1},              // negative order
		{4, -2},              // negative order whose square has the right length
		{0, math.MaxInt / 2}, // n² overflows
	} {
		if _, err := FromDense(make([]uint64, tc.entries), make([]uint64, tc.entries), tc.n); err == nil {
			t.Fatalf("FromDense of %d entries for order %d should error", tc.entries, tc.n)
		}
	}
}

func TestMatrixViewMalformedRows(t *testing.T) {
	m := &Matrix{N: 3} // no rows at all
	if err := m.VisitRows(func(_, _ int, _ uint64) error { return nil }); err == nil {
		t.Fatal("malformed matrix should error from VisitRows")
	}
	if err := m.VisitPairs(func(_, _ int, _, _ uint64) error { return nil }); err == nil {
		t.Fatal("malformed matrix should error from VisitPairs")
	}
}

func TestVisitorsStopAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	m := bytesMatrix(t, []uint64{0, 1, 2, 0}, 2)
	calls := 0
	err := m.VisitRows(func(_, _ int, _ uint64) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want boom after 1 call", err, calls)
	}
}

func TestSum(t *testing.T) {
	a, err := FromDense([]uint64{0, 2, 0, 0}, []uint64{0, 10, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromDense([]uint64{0, 1, 3, 0}, []uint64{0, 5, 7, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sum(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c, by := s.At(0, 1); c != 3 || by != 15 {
		t.Fatalf("sum(0,1) = %d cnt, %d bytes; want 3, 15", c, by)
	}
	if c, by := s.At(1, 0); c != 3 || by != 7 {
		t.Fatalf("sum(1,0) = %d cnt, %d bytes; want 3, 7", c, by)
	}
}

func TestSumErrors(t *testing.T) {
	if _, err := Sum(); err == nil {
		t.Fatal("empty sum should error")
	}
	a := New(2)
	b := New(3)
	if _, err := Sum(a, b); err == nil {
		t.Fatal("order mismatch should error")
	}
}
