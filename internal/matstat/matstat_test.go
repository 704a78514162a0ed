package matstat

import (
	"math/rand"
	"reflect"
	"testing"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// bothViews returns the two representations of one row-major n-by-n bytes
// matrix — DenseView over it and the sparse matrix built from it — so every
// statistic below is checked over both.
func bothViews(t *testing.T, bytes []uint64, n int) map[string]sparsemat.MatrixView {
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
	return map[string]sparsemat.MatrixView{"dense": sparsemat.DenseView(bytes, n), "sparse": sm}
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
		for name, v := range bothViews(t, tc.mat, tc.n) {
			s, err := Summarize(v)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, name, err)
			}
			if s != tc.want {
				t.Errorf("%s/%s: summary %+v, want %+v", tc.name, name, s, tc.want)
			}
			if s.Imbalance() != tc.imbalance {
				t.Errorf("%s/%s: imbalance %v, want %v", tc.name, name, s.Imbalance(), tc.imbalance)
			}
		}
	}
}

func TestComputeLocality(t *testing.T) {
	topo := topology.MustNew(2, 2) // 2 nodes x 2 cores
	n := 4
	mat := make([]uint64, n*n)
	mat[0*n+1] = 100 // ranks 0,1
	mat[2*n+3] = 50  // ranks 2,3
	for name, v := range bothViews(t, mat, n) {
		// Packed placement: 0,1 on node 0; 2,3 on node 1 -> all node-local.
		loc, err := ComputeLocality(v, topo, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if loc.NodeFraction() != 1 {
			t.Fatalf("%s: packed locality = %v, want 1", name, loc.NodeFraction())
		}
		// Round-robin placement: 0,2 on node 0; 1,3 on node 1 -> all cross.
		loc, err = ComputeLocality(v, topo, []int{0, 2, 1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if loc.NodeFraction() != 0 {
			t.Fatalf("%s: spread locality = %v, want 0", name, loc.NodeFraction())
		}
		if loc.ByLevel[0] != 150 {
			t.Fatalf("%s: cross-switch bytes %d, want 150", name, loc.ByLevel[0])
		}
		if _, err := ComputeLocality(v, topo, []int{0}); err == nil {
			t.Fatalf("%s: short placement should fail", name)
		}
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
	for name, v := range bothViews(t, mat, n) {
		pairs, err := TopPairs(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Two 30-byte pairs tie; (1,0) sorts before (2,0).
		want := []Pair{{Src: 1, Dst: 0, Bytes: 30}, {Src: 2, Dst: 0, Bytes: 30}}
		if !reflect.DeepEqual(pairs, want) {
			t.Fatalf("%s: pairs = %v, want %v", name, pairs, want)
		}
		all, err := TopPairs(v, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 4 {
			t.Fatalf("%s: all pairs = %v", name, all)
		}
	}
}

func TestBisectionBytes(t *testing.T) {
	// Edges 0-1, 1-2, 2-3, 3-0: two cross the half split.
	for name, v := range bothViews(t, ringMatrix(4, 10), 4) {
		cross, err := BisectionBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		if cross != 20 {
			t.Fatalf("%s: bisection = %d, want 20", name, cross)
		}
	}
}

// TestViewsAgree pins every statistic of a sparse matrix to the same
// statistic of DenseView over its densified bytes plane, on random traffic
// with count-only (zero-byte) entries, so the reorder/elastic/report layers
// can consume the gathered sparse matrix without densifying first.
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
		dense := sparsemat.DenseView(bytes, n)

		wantS, errD := Summarize(dense)
		gotS, errS := Summarize(sm)
		if errD != nil || errS != nil || wantS != gotS {
			t.Fatalf("summary diverged:\ndense:  %+v %v\nsparse: %+v %v", wantS, errD, gotS, errS)
		}
		wantL, errD := ComputeLocality(dense, topo, place)
		gotL, errS := ComputeLocality(sm, topo, place)
		if errD != nil || errS != nil || !reflect.DeepEqual(wantL, gotL) {
			t.Fatalf("locality diverged:\ndense:  %+v %v\nsparse: %+v %v", wantL, errD, gotL, errS)
		}
		wantP, errD := TopPairs(dense, 5)
		gotP, errS := TopPairs(sm, 5)
		if errD != nil || errS != nil || !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("top pairs diverged:\ndense:  %+v %v\nsparse: %+v %v", wantP, errD, gotP, errS)
		}
		wantB, errD := BisectionBytes(dense)
		gotB, errS := BisectionBytes(sm)
		if errD != nil || errS != nil || wantB != gotB {
			t.Fatalf("bisection bytes: dense %d %v, sparse %d %v", wantB, errD, gotB, errS)
		}
	}
}

// TestMalformedViews: a dense slice of the wrong length and a sparse matrix
// with a short row list or an out-of-range destination are errors of every
// statistic, not panics.
func TestMalformedViews(t *testing.T) {
	topo := topology.MustNew(2, 2)
	for name, v := range map[string]sparsemat.MatrixView{
		"dense length": sparsemat.DenseView(make([]uint64, 4), 3),
		"row count":    &sparsemat.Matrix{N: 3, Rows: make([]sparsemat.Row, 2)},
		"bad row": &sparsemat.Matrix{N: 2, Rows: []sparsemat.Row{
			{Dst: []int32{5}, Cnt: []uint64{1}, Byt: []uint64{1}}, {}}},
	} {
		if _, err := Summarize(v); err == nil {
			t.Errorf("%s: accepted by Summarize", name)
		}
		if _, err := ComputeLocality(v, topo, make([]int, v.Order())); err == nil {
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
