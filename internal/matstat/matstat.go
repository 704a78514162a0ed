// Package matstat analyzes the communication matrices the monitoring
// library gathers: aggregate volumes, per-rank imbalance, locality of
// traffic with respect to a placement, and the heaviest communicating
// pairs. It backs the analysis output of cmd/mpimon and gives applications
// a quick way to judge whether rank reordering is worth trying (a low
// node-locality fraction with high volume is the paper's sweet spot).
package matstat

import (
	"fmt"
	"sort"

	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

// Summary aggregates the bytes plane of one n-by-n matrix.
type Summary struct {
	N     int
	Total uint64
	// NonzeroPairs counts directed (i,j) entries with traffic.
	NonzeroPairs int
	// MaxRankOut/MinRankOut are the largest and smallest per-rank totals
	// of sent bytes; their ratio measures sender imbalance.
	MaxRankOut, MinRankOut uint64
	// AvgDegree is the mean number of distinct peers per rank
	// (symmetrized).
	AvgDegree float64
	// Diagonal is self-traffic (usually zero).
	Diagonal uint64
}

// Summarize computes the aggregates of a matrix in O(nnz).
func Summarize(v *sparsemat.Matrix) (Summary, error) {
	// The pair visit runs first: it validates the matrix, so a malformed
	// one is reported before its order sizes the per-rank array below.
	deg := 0
	err := v.VisitPairs(func(_, _ int, bij, bji uint64) error {
		if bij|bji != 0 {
			deg += 2
		}
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	n := v.N
	s := Summary{N: n}
	out := make([]uint64, n)
	err = v.VisitRows(func(i, j int, b uint64) error {
		s.Total += b
		s.NonzeroPairs++
		out[i] += b
		if i == j {
			s.Diagonal += b
		}
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	if n > 0 {
		s.MinRankOut = out[0]
		for _, o := range out {
			if o > s.MaxRankOut {
				s.MaxRankOut = o
			}
			if o < s.MinRankOut {
				s.MinRankOut = o
			}
		}
		s.AvgDegree = float64(deg) / float64(n)
	}
	return s, nil
}

// Imbalance returns MaxRankOut/MinRankOut, or +Inf when some rank sent
// nothing while another did.
func (s Summary) Imbalance() float64 {
	if s.MinRankOut == 0 {
		if s.MaxRankOut == 0 {
			return 1
		}
		return 0 // signalled via IsBalanced-style checks; avoid Inf
	}
	return float64(s.MaxRankOut) / float64(s.MinRankOut)
}

// Locality describes how much of the traffic stays inside topology levels
// under a given placement.
type Locality struct {
	Total uint64
	// ByLevel[l] is the bytes whose endpoints share an ancestor at depth
	// exactly l (l = 0 crosses the top switch; deeper is more local).
	ByLevel []uint64
}

// NodeFraction returns the fraction of traffic that stays within a node
// (shared level >= 1); 1 means fully node-local.
func (l Locality) NodeFraction() float64 {
	if l.Total == 0 {
		return 1
	}
	var local uint64
	for lvl := 1; lvl < len(l.ByLevel); lvl++ {
		local += l.ByLevel[lvl]
	}
	return float64(local) / float64(l.Total)
}

// ComputeLocality classifies every directed entry of the matrix by the
// shared topology level of its endpoints under the placement
// (rank -> core).
func ComputeLocality(v *sparsemat.Matrix, topo *topology.Topology, place []int) (Locality, error) {
	if len(place) != v.N {
		return Locality{}, fmt.Errorf("matstat: placement has %d entries for %d ranks", len(place), v.N)
	}
	loc := Locality{ByLevel: make([]uint64, topo.Depth()+1)}
	err := v.VisitRows(func(i, j int, b uint64) error {
		loc.Total += b
		loc.ByLevel[topo.SharedLevel(place[i], place[j])] += b
		return nil
	})
	if err != nil {
		return Locality{}, err
	}
	return loc, nil
}

// Pair is one directed communicating pair.
type Pair struct {
	Src, Dst int
	Bytes    uint64
}

// TopPairs returns the k heaviest directed pairs, descending (ties by
// source then destination rank for determinism).
func TopPairs(v *sparsemat.Matrix, k int) ([]Pair, error) {
	var pairs []Pair
	err := v.VisitRows(func(i, j int, b uint64) error {
		if i != j {
			pairs = append(pairs, Pair{Src: i, Dst: j, Bytes: b})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Bytes != pairs[b].Bytes {
			return pairs[a].Bytes > pairs[b].Bytes
		}
		if pairs[a].Src != pairs[b].Src {
			return pairs[a].Src < pairs[b].Src
		}
		return pairs[a].Dst < pairs[b].Dst
	})
	if k < len(pairs) {
		pairs = pairs[:k]
	}
	return pairs, nil
}

// BisectionBytes returns the traffic crossing an even rank bisection
// (ranks < n/2 versus the rest), a quick pattern fingerprint.
func BisectionBytes(v *sparsemat.Matrix) (uint64, error) {
	half := v.N / 2
	var cross uint64
	err := v.VisitRows(func(i, j int, b uint64) error {
		if (i < half) != (j < half) {
			cross += b
		}
		return nil
	})
	return cross, err
}
