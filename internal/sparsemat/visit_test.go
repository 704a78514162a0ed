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
// VisitPairs must agree with: O(n²) over the densified matrix, where an
// entry is present when its count or its bytes are nonzero (the row
// invariant rules out an entry with both zero).
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

func brutePairs(m *Matrix) map[[2]int][2]uint64 {
	counts, bytes := m.Dense()
	n := m.N
	has := func(i, j int) bool { return counts[i*n+j]|bytes[i*n+j] != 0 }
	out := map[[2]int][2]uint64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if has(i, j) || has(j, i) {
				out[[2]int{i, j}] = [2]uint64{bytes[i*n+j], bytes[j*n+i]}
			}
		}
	}
	return out
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
// against the O(n²) reference walks on seeded random matrices holding
// count-only (zero-byte) entries and one-way pairs: the same directed
// entries in the same order, every unordered pair exactly once with the
// same bytes both ways, the same total.
func TestVisitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		counts := make([]uint64, n*n)
		bytes := make([]uint64, n*n)
		for i := range counts {
			switch rng.Intn(4) {
			case 0:
			case 1: // count-only entry, no bytes
				counts[i] = 1
			default:
				counts[i] = uint64(rng.Intn(5) + 1)
				bytes[i] = uint64(rng.Intn(1 << 16))
			}
		}
		m, err := FromDense(counts, bytes, n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := collectRows(t, m), bruteRows(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rows = %v, want %v", trial, got, want)
		}
		want := brutePairs(m)
		got := map[[2]int][2]uint64{}
		for _, p := range collectPairs(t, m) {
			k := [2]int{p.i, p.j}
			if _, dup := got[k]; dup {
				t.Fatalf("trial %d: pair (%d,%d) visited twice", trial, p.i, p.j)
			}
			got[k] = [2]uint64{p.bij, p.bji}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pairs = %v, want %v", trial, got, want)
		}
		var sum uint64
		for _, b := range bytes {
			sum += b
		}
		if total, err := TotalBytes(m); err != nil || total != sum {
			t.Fatalf("trial %d: TotalBytes = %d, %v; want %d", trial, total, err, sum)
		}
	}
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
