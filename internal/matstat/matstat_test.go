package matstat

import (
	"math/rand"
	"reflect"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// matrixOf returns the matrix of a row-major n-by-n bytes plane, one
// message per nonzero entry.
func matrixOf(t *testing.T, bytes []uint64, n int) *sparsemat.Matrix {
	t.Helper()
	counts := make([]uint64, len(bytes))
	for i, b := range bytes {
		if b > 0 {
			counts[i] = 1
		}
	}
	sm, err := sparsemat.FromDense(counts, bytes, n)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// ringMatrix builds the n-rank ring bytes matrix with w bytes per edge.
func ringMatrix(n int, w uint64) []uint64 {
	mat := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		mat[i*n+(i+1)%n] = w
	}
	return mat
}

func TestSummarize(t *testing.T) {
	imbalanced := make([]uint64, 9)
	imbalanced[0*3+1] = 900
	imbalanced[1*3+2] = 100 // rank 2 sends nothing: an all-zero row
	for _, tc := range []struct {
		name      string
		mat       []uint64
		n         int
		want      Summary
		imbalance float64
	}{
		{"ring", ringMatrix(4, 100), 4,
			Summary{N: 4, Total: 400, NonzeroPairs: 4, MaxRankOut: 100, MinRankOut: 100, AvgDegree: 2}, 1},
		{"zero-row", imbalanced, 3,
			Summary{N: 3, Total: 1000, NonzeroPairs: 2, MaxRankOut: 900, MinRankOut: 0, AvgDegree: 4.0 / 3}, 0},
		{"diagonal", []uint64{7, 0, 0, 0}, 2,
			Summary{N: 2, Total: 7, NonzeroPairs: 1, MaxRankOut: 7, MinRankOut: 0, Diagonal: 7}, 0},
		{"empty", nil, 0, Summary{}, 1},
	} {
		s, err := Summarize(matrixOf(t, tc.mat, tc.n))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s != tc.want {
			t.Errorf("%s: summary %+v, want %+v", tc.name, s, tc.want)
		}
		if s.Imbalance() != tc.imbalance {
			t.Errorf("%s: imbalance %v, want %v", tc.name, s.Imbalance(), tc.imbalance)
		}
	}
}

func TestComputeLocality(t *testing.T) {
	topo := topology.MustNew(2, 2) // 2 nodes x 2 cores
	n := 4
	mat := make([]uint64, n*n)
	mat[0*n+1] = 100 // ranks 0,1
	mat[2*n+3] = 50  // ranks 2,3
	v := matrixOf(t, mat, n)
	// Packed placement: 0,1 on node 0; 2,3 on node 1 -> all node-local.
	loc, err := ComputeLocality(v, topo, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if loc.NodeFraction() != 1 {
		t.Fatalf("packed locality = %v, want 1", loc.NodeFraction())
	}
	// Round-robin placement: 0,2 on node 0; 1,3 on node 1 -> all cross.
	loc, err = ComputeLocality(v, topo, []int{0, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if loc.NodeFraction() != 0 {
		t.Fatalf("spread locality = %v, want 0", loc.NodeFraction())
	}
	if loc.ByLevel[0] != 150 {
		t.Fatalf("cross-switch bytes %d, want 150", loc.ByLevel[0])
	}
	if _, err := ComputeLocality(v, topo, []int{0}); err == nil {
		t.Fatal("short placement should fail")
	}
}

func TestNodeFractionEmpty(t *testing.T) {
	var l Locality
	if l.NodeFraction() != 1 {
		t.Fatal("empty locality should report 1 (nothing crosses)")
	}
}

func TestTopPairs(t *testing.T) {
	n := 3
	mat := make([]uint64, n*n)
	mat[0*n+1] = 10
	mat[1*n+0] = 30
	mat[2*n+0] = 30
	mat[1*n+2] = 5
	mat[2*n+2] = 99 // self-traffic is not a pair
	v := matrixOf(t, mat, n)
	pairs, err := TopPairs(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two 30-byte pairs tie; (1,0) sorts before (2,0).
	want := []Pair{{Src: 1, Dst: 0, Bytes: 30}, {Src: 2, Dst: 0, Bytes: 30}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	all, err := TopPairs(v, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("all pairs = %v", all)
	}
}

func TestBisectionBytes(t *testing.T) {
	// Edges 0-1, 1-2, 2-3, 3-0: two cross the half split.
	v := matrixOf(t, ringMatrix(4, 10), 4)
	cross, err := BisectionBytes(v)
	if err != nil {
		t.Fatal(err)
	}
	if cross != 20 {
		t.Fatalf("bisection = %d, want 20", cross)
	}
}

// TestViewsAgree pins every statistic of a matrix with count-only
// (zero-byte) entries to the same statistic of the matrix of its bytes
// plane alone, on random traffic: a zero-byte send moves no statistic.
func TestViewsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := topology.MustNew(2, 4)
	place := []int{0, 1, 2, 3, 4, 5, 6, 7}
	const n = 8
	for trial := 0; trial < 10; trial++ {
		counts := make([]uint64, n*n)
		bytes := make([]uint64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch rng.Intn(4) {
				case 0: // no traffic at all
				case 1: // count-only (zero-byte sends)
					counts[i*n+j] = uint64(rng.Intn(4) + 1)
				default:
					counts[i*n+j] = uint64(rng.Intn(4) + 1)
					bytes[i*n+j] = uint64(rng.Intn(1<<12) + 1)
				}
			}
		}
		sm, err := sparsemat.FromDense(counts, bytes, n)
		if err != nil {
			t.Fatal(err)
		}
		plane := matrixOf(t, bytes, n)

		wantS, errD := Summarize(plane)
		gotS, errS := Summarize(sm)
		if errD != nil || errS != nil || wantS != gotS {
			t.Fatalf("summary diverged:\nbytes plane: %+v %v\nmatrix:      %+v %v", wantS, errD, gotS, errS)
		}
		wantL, errD := ComputeLocality(plane, topo, place)
		gotL, errS := ComputeLocality(sm, topo, place)
		if errD != nil || errS != nil || !reflect.DeepEqual(wantL, gotL) {
			t.Fatalf("locality diverged:\nbytes plane: %+v %v\nmatrix:      %+v %v", wantL, errD, gotL, errS)
		}
		wantP, errD := TopPairs(plane, 5)
		gotP, errS := TopPairs(sm, 5)
		if errD != nil || errS != nil || !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("top pairs diverged:\nbytes plane: %+v %v\nmatrix:      %+v %v", wantP, errD, gotP, errS)
		}
		wantB, errD := BisectionBytes(plane)
		gotB, errS := BisectionBytes(sm)
		if errD != nil || errS != nil || wantB != gotB {
			t.Fatalf("bisection bytes: bytes plane %d %v, matrix %d %v", wantB, errD, gotB, errS)
		}
	}
}

// TestMalformedViews: a matrix with a short row list or an out-of-range
// destination is an error of every statistic, not a panic.
func TestMalformedViews(t *testing.T) {
	topo := topology.MustNew(2, 2)
	for name, v := range map[string]*sparsemat.Matrix{
		"row count": &sparsemat.Matrix{N: 3, Rows: make([]sparsemat.Row, 2)},
		"bad row": &sparsemat.Matrix{N: 2, Rows: []sparsemat.Row{
			{Dst: []int32{5}, Cnt: []uint64{1}, Byt: []uint64{1}}, {}}},
	} {
		if _, err := Summarize(v); err == nil {
			t.Errorf("%s: accepted by Summarize", name)
		}
		if _, err := ComputeLocality(v, topo, make([]int, v.N)); err == nil {
			t.Errorf("%s: accepted by ComputeLocality", name)
		}
		if _, err := TopPairs(v, 3); err == nil {
			t.Errorf("%s: accepted by TopPairs", name)
		}
		if _, err := BisectionBytes(v); err == nil {
			t.Errorf("%s: accepted by BisectionBytes", name)
		}
	}
}
