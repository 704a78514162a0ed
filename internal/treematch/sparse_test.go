package treematch

import (
	"math/rand"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// randTraffic builds a random dense counts/bytes pair with assorted holes:
// absent entries, count-only entries (bytes 0), and heavy asymmetric pairs.
func randTraffic(rng *rand.Rand, n int) (counts, bytes []uint64) {
	counts = make([]uint64, n*n)
	bytes = make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch rng.Intn(4) {
			case 0: // no traffic at all
			case 1: // count-only (e.g. zero-byte sends)
				counts[i*n+j] = uint64(rng.Intn(5) + 1)
			default:
				counts[i*n+j] = uint64(rng.Intn(20) + 1)
				bytes[i*n+j] = uint64(rng.Intn(1 << 20))
			}
		}
	}
	return counts, bytes
}

func sameDense(t *testing.T, a, b *Matrix) {
	t.Helper()
	da, db := a.Dense(), b.Dense()
	if len(da) != len(db) {
		t.Fatalf("size mismatch: %d vs %d", len(da), len(db))
	}
	for i := range da {
		for j := range da[i] {
			if da[i][j] != db[i][j] {
				t.Fatalf("affinity (%d,%d): %v, want %v", i, j, db[i][j], da[i][j])
			}
		}
	}
}

// bruteAffinity is the reference FromView must agree with: O(n²) over the
// densified bytes plane, the affinity float64(i→j) + float64(j→i) of every
// pair i < j added when positive.
func bruteAffinity(sm *sparsemat.Matrix) *Matrix {
	_, bytes := sm.Dense()
	n := sm.N
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := float64(bytes[i*n+j]) + float64(bytes[j*n+i]); w > 0 {
				m.Add(i, j, w)
			}
		}
	}
	m.Finish()
	return m
}

// TestFromViewBitIdentical pins FromView to the O(n²) reference: the same
// affinities bit for bit, and hence the same TreeMatch placements,
// including matrices with zero-byte nonzero-count entries and one-way
// pairs.
func TestFromViewBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		n, trials int
		topo      *topology.Topology
	}{
		{4, 20, topology.MustNew(2, 2)},
		{8, 20, topology.MustNew(2, 2, 2)},
		{256, 2, topology.MustNew(8, 2, 16)},
	} {
		for trial := 0; trial < tc.trials; trial++ {
			counts, bytes := randTraffic(rng, tc.n)
			sm, err := sparsemat.FromDense(counts, bytes, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteAffinity(sm)
			got, err := FromView(sm)
			if err != nil {
				t.Fatal(err)
			}
			sameDense(t, want, got)

			pw, err := MapTree(want, tc.topo.FullTree())
			if err != nil {
				t.Fatal(err)
			}
			pg, err := MapTree(got, tc.topo.FullTree())
			if err != nil {
				t.Fatal(err)
			}
			for i := range pw {
				if pw[i] != pg[i] {
					t.Fatalf("n %d trial %d: placement diverged at %d: %v vs %v", tc.n, trial, i, pw, pg)
				}
			}
		}
	}
}

// TestFromViewFinished: FromView builds its matrix finished, so every row
// must already be what Finish would leave, strictly ascending columns and
// positive weights, holding the affinities of the O(n²) reference. The
// views add diagonal entries, which carry no affinity, to randTraffic's.
func TestFromViewFinished(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		counts, bytes := randTraffic(rng, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				counts[i*n+i], bytes[i*n+i] = 1, uint64(1+rng.Intn(1<<20))
			}
		}
		sm, err := sparsemat.FromDense(counts, bytes, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromView(sm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got.rows {
			for k, e := range r {
				if e.Col == i || e.W <= 0 || k > 0 && r[k-1].Col >= e.Col {
					t.Fatalf("trial %d: row %d is not finished: %v", trial, i, r)
				}
			}
		}
		sameDense(t, bruteAffinity(sm), got)
	}
}

// chainView is a sparse view of order n in which every process talks both
// ways with its chain neighbours and one way to the process n/2 above it.
func chainView(n int) *sparsemat.Matrix {
	sm := sparsemat.New(n)
	for i := range sm.Rows {
		r := &sm.Rows[i]
		for _, j := range []int{i - 1, i + 1, i + n/2} {
			if j >= 0 && j < n {
				r.Dst = append(r.Dst, int32(j))
				r.Cnt = append(r.Cnt, 1)
				r.Byt = append(r.Byt, uint64(100+i%7))
			}
		}
	}
	return sm
}

// TestFromViewAllocs pins that the matrix build allocates a constant number
// of times whatever the order: exact-size rows cut from one backing array,
// not rows grown entry by entry.
func TestFromViewAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		v := chainView(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := FromView(v); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(512), allocs(4096)
	if large > 8 || large != small {
		t.Fatalf("FromView allocates %v times at order 512 and %v at 4096, want the same small constant", small, large)
	}
}

func TestFromViewPadded(t *testing.T) {
	bytes := []uint64{0, 100, 100, 0}
	dense4 := make([]uint64, 16)
	dense4[0*4+1], dense4[1*4+0] = 100, 100
	sm4, err := sparsemat.FromDense(dense4, dense4, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromView(sm4)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sparsemat.FromDense([]uint64{0, 1, 1, 0}, bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromViewPadded(sm, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameDense(t, want, got)
	if _, err := FromViewPadded(sm, 1); err == nil {
		t.Fatal("padding below matrix size accepted")
	}
}

func TestFromViewRejectsCorrupt(t *testing.T) {
	sm := &sparsemat.Matrix{N: 2, Rows: []sparsemat.Row{{Dst: []int32{5}, Cnt: []uint64{1}, Byt: []uint64{1}}, {}}}
	if _, err := FromView(sm); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := FromView(&sparsemat.Matrix{N: 3, Rows: make([]sparsemat.Row, 2)}); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}
