package treematch

// The seed (pre-rewrite) map-based partitioning algorithm, kept verbatim as
// a test-only reference: the dense kernel in partition.go must never place
// worse than this within the refinement budget (and, by construction, it
// reproduces the reference's greedy and swap selection exactly, so the
// equality tests in partition_test.go hold bit-for-bit).

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"mpimon/internal/topology"
)

func refMapTree(m *Matrix, root *topology.Tree) ([]int, error) {
	if m.N() != root.Cap {
		return nil, fmt.Errorf("treematch: %d processes for a tree of %d leaves", m.N(), root.Cap)
	}
	m.Finish()
	out := make([]int, m.N())
	procs := make([]int, m.N())
	for i := range procs {
		procs[i] = i
	}
	refAssign(m, root, procs, out)
	return out, nil
}

func refAssign(m *Matrix, node *topology.Tree, procs []int, out []int) {
	if node.Children == nil {
		out[procs[0]] = node.Leaf
		return
	}
	caps := make([]int, len(node.Children))
	for i, c := range node.Children {
		caps[i] = c.Cap
	}
	parts := refPartition(m, procs, caps)
	for i, c := range node.Children {
		refAssign(m, c, parts[i], out)
	}
}

func refPartition(m *Matrix, procs []int, caps []int) [][]int {
	k := len(caps)
	parts := make([][]int, k)
	if k == 1 {
		parts[0] = procs
		return parts
	}

	inSet := make(map[int]bool, len(procs))
	for _, p := range procs {
		inSet[p] = true
	}
	unassigned := make(map[int]bool, len(procs))
	for _, p := range procs {
		unassigned[p] = true
	}
	total := make(map[int]float64, len(procs))
	for _, p := range procs {
		var s float64
		for _, e := range m.Row(p) {
			if inSet[e.Col] {
				s += e.W
			}
		}
		total[p] = s
	}

	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if caps[order[a]] != caps[order[b]] {
			return caps[order[a]] > caps[order[b]]
		}
		return order[a] < order[b]
	})

	claim := func(p int) {
		delete(unassigned, p)
		for _, e := range m.Row(p) {
			if unassigned[e.Col] {
				total[e.Col] -= e.W
			}
		}
	}

	for _, pi := range order {
		want := caps[pi]
		part := make([]int, 0, want)
		gain := make(map[int]float64)

		for len(part) < want {
			best, found := -1, false
			var bestScore, bestGain float64
			for _, p := range procs {
				if !unassigned[p] {
					continue
				}
				g := gain[p]
				score := g - (total[p] - g)
				if !found || score > bestScore || (score == bestScore && g > bestGain) ||
					(score == bestScore && g == bestGain && p < best) {
					best, bestScore, bestGain, found = p, score, g, true
				}
			}
			claim(best)
			part = append(part, best)
			for _, e := range m.Row(best) {
				if unassigned[e.Col] {
					gain[e.Col] += e.W
				}
			}
		}
		parts[pi] = part
	}

	refRefineSwaps(m, parts)
	for _, part := range parts {
		sort.Ints(part)
	}
	return parts
}

func refRefineSwaps(m *Matrix, parts [][]int) {
	work := 0
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			work += len(parts[i]) * len(parts[j])
		}
	}
	if work > refineBudget {
		return
	}
	partOf := make(map[int]int)
	for pi, part := range parts {
		for _, p := range part {
			partOf[p] = pi
		}
	}
	aff := make(map[int][]float64, len(partOf))
	for p := range partOf {
		row := make([]float64, len(parts))
		for _, e := range m.Row(p) {
			if pi, ok := partOf[e.Col]; ok {
				row[pi] += e.W
			}
		}
		aff[p] = row
	}

	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for ai := range parts {
			for bi := ai + 1; bi < len(parts); bi++ {
				for {
					bestGain := 0.0
					bestA, bestB := -1, -1
					for _, a := range parts[ai] {
						for _, b := range parts[bi] {
							g := (aff[a][bi] - aff[a][ai]) + (aff[b][ai] - aff[b][bi]) - 2*m.Affinity(a, b)
							if g > bestGain+1e-12 {
								bestGain, bestA, bestB = g, a, b
							}
						}
					}
					if bestA < 0 {
						break
					}
					refSwap(parts, partOf, aff, m, ai, bi, bestA, bestB)
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
}

func refSwap(parts [][]int, partOf map[int]int, aff map[int][]float64, m *Matrix, ai, bi, a, b int) {
	replace := func(part []int, old, new int) {
		for i, p := range part {
			if p == old {
				part[i] = new
				return
			}
		}
	}
	replace(parts[ai], a, b)
	replace(parts[bi], b, a)
	partOf[a], partOf[b] = bi, ai
	for _, e := range m.Row(a) {
		if _, ok := partOf[e.Col]; ok && e.Col != b {
			aff[e.Col][ai] -= e.W
			aff[e.Col][bi] += e.W
		}
	}
	for _, e := range m.Row(b) {
		if _, ok := partOf[e.Col]; ok && e.Col != a {
			aff[e.Col][bi] -= e.W
			aff[e.Col][ai] += e.W
		}
	}
}

// The dense kernel as it stood before the part-slack bound and the indexed
// claim heap, kept verbatim (only its type names prefixed with ref) as the
// oracle of FuzzMapTree: the lazy claim heap, refineSwaps, refineCapped and
// refinePair. refCappedMapTree drives it sequentially with one workspace;
// MapTree's placements do not depend on its worker pool.

func refCappedMapTree(m *Matrix, root *topology.Tree) []int {
	m.Finish()
	out := make([]int, m.N())
	procs := make([]int, m.N())
	for i := range procs {
		procs[i] = i
	}
	ws := newRefWorkspace(m.N())
	var assign func(node *topology.Tree, procs []int)
	assign = func(node *topology.Tree, procs []int) {
		if node.Children == nil {
			out[procs[0]] = node.Leaf
			return
		}
		caps := make([]int, len(node.Children))
		for i, c := range node.Children {
			caps[i] = c.Cap
		}
		parts := ws.partition(m, procs, caps)
		for i, c := range node.Children {
			assign(c, parts[i])
		}
	}
	assign(root, procs)
	return out
}

// refWorkspace is the dense per-subproblem state, sized once for the whole
// matrix and reused across partition calls (one refWorkspace per worker).
type refWorkspace struct {
	// local maps a global process id to its index in the current
	// subproblem's procs slice, -1 outside it. procs slices are always
	// ascending, so local index order equals global id order.
	local []int32
	// gain[l] is the affinity of unassigned local process l to the part
	// currently being grown; total[l] its affinity to the still-unassigned
	// processes of the subproblem.
	gain, total []float64
	assigned    []bool
	// touched lists local indices with nonzero gain for the current part.
	touched []int32
	heap    refGainHeap
	// refine scratch: partOf by local index, aff the flat |procs|·k
	// part-affinity table, rowW and scratch dense affinity rows (kept
	// zeroed between uses).
	partOf  []int32
	rowW    []float64
	scratch []float64
	aff     []float64
}

func newRefWorkspace(n int) *refWorkspace {
	ws := &refWorkspace{
		local:    make([]int32, n),
		gain:     make([]float64, n),
		total:    make([]float64, n),
		assigned: make([]bool, n),
		partOf:   make([]int32, n),
		rowW:     make([]float64, n),
		scratch:  make([]float64, n),
	}
	for i := range ws.local {
		ws.local[i] = -1
	}
	return ws
}

// refHeapEntry is one lazy-heap candidate: the process and the (score, gain)
// it was pushed with. Entries are validated against the current values on
// pop; stale ones are discarded.
type refHeapEntry struct {
	score, gain float64
	p           int32
}

// refGainHeap is a 4-ary max-heap ordered by (score desc, gain desc, p asc) —
// the exact selection order of the reference greedy loop. refHeapBetter is a
// total order up to identical entries, so the sequence of pops does not
// depend on the heap's arity or sifting: the layout is free to be the
// cheapest one. Sifts move a hole and write the entry once instead of
// swapping at every level.
type refGainHeap []refHeapEntry

func refHeapBetter(a, b refHeapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.p < b.p
}

func (h *refGainHeap) push(e refHeapEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !refHeapBetter(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func (h *refGainHeap) pop() refHeapEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	*h = s[:last]
	if last > 0 {
		refSiftDown(s[:last], 0, s[last])
	}
	return top
}

// refSiftDown places e into the subheap rooted at the hole i.
func refSiftDown(s []refHeapEntry, i int, e refHeapEntry) {
	for {
		c := 4*i + 1
		if c >= len(s) {
			break
		}
		best, end := c, min(c+4, len(s))
		for j := c + 1; j < end; j++ {
			if refHeapBetter(s[j], s[best]) {
				best = j
			}
		}
		if !refHeapBetter(s[best], e) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = e
}

// partition splits procs into len(caps) parts with |part[i]| = caps[i],
// keeping high affinities inside parts: greedy graph growing (each part is
// grown by the unassigned process maximizing affinity-to-part minus
// affinity-to-outside, the GGGP criterion) followed by the bounded
// Kernighan-Lin swap refinement between part pairs.
func (ws *refWorkspace) partition(m *Matrix, procs []int, caps []int) [][]int {
	k := len(caps)
	parts := make([][]int, k)
	if k == 1 {
		parts[0] = procs
		return parts
	}

	local := ws.local
	for i, p := range procs {
		local[p] = int32(i)
	}
	heap := ws.heap[:0]
	for i, p := range procs {
		var s float64
		for _, e := range m.Row(p) {
			if local[e.Col] >= 0 {
				s += e.W
			}
		}
		ws.total[i] = s
		ws.gain[i] = 0
		ws.assigned[i] = false
		heap = append(heap, refHeapEntry{score: -s, gain: 0, p: int32(p)})
	}
	// Heapify the initial batch in O(n): sift down every inner node, from
	// the parent of the last entry back to the root.
	for i := (len(heap)+2)/4 - 1; i >= 0; i-- {
		refSiftDown(heap, i, heap[i])
	}
	ws.heap = heap
	ws.touched = ws.touched[:0]

	// Largest parts first, ties by index (the keys are unique).
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(caps[b], caps[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, pi := range order {
		want := caps[pi]
		part := make([]int, 0, want)
		for len(part) < want {
			best := ws.popBest()
			li := local[best]
			ws.assigned[li] = true
			part = append(part, best)
			// Claiming best removes it from its neighbours' remaining
			// totals and adds its affinity to their gain toward this part.
			for _, e := range m.Row(best) {
				l := local[e.Col]
				if l < 0 || ws.assigned[l] {
					continue
				}
				ws.total[l] -= e.W
				if ws.gain[l] == 0 {
					ws.touched = append(ws.touched, l)
				}
				ws.gain[l] += e.W
				g := ws.gain[l]
				ws.heap.push(refHeapEntry{score: g - (ws.total[l] - g), gain: g, p: int32(e.Col)})
			}
		}
		parts[pi] = part
		// The next part starts from zero gain: reset the processes this
		// part touched and re-key them in the heap.
		for _, l := range ws.touched {
			if ws.assigned[l] || ws.gain[l] == 0 {
				ws.gain[l] = 0
				continue
			}
			ws.gain[l] = 0
			ws.heap.push(refHeapEntry{score: -ws.total[l], gain: 0, p: int32(procs[l])})
		}
		ws.touched = ws.touched[:0]
	}

	ws.refineSwaps(m, procs, parts)

	for _, p := range procs {
		local[p] = -1
	}
	for _, part := range parts {
		slices.Sort(part)
	}
	return parts
}

// popBest pops heap entries until one reflects the current (score, gain) of
// an unassigned process. Every state change pushes a fresh entry, so the
// first value-consistent entry is the true maximum.
func (ws *refWorkspace) popBest() int {
	for {
		e := ws.heap.pop()
		l := ws.local[e.p]
		if l < 0 || ws.assigned[l] {
			continue
		}
		g := ws.gain[l]
		score := g - (ws.total[l] - g)
		if e.gain == g && e.score == score {
			return int(e.p)
		}
	}
}

// refineSwaps improves a capacity-respecting partition by repeatedly
// applying the best single swap of two processes between two parts while it
// reduces the cut (a bounded Kernighan-Lin pass per part pair). Within
// refineBudget it reproduces the reference pass structure exactly; above it
// the capped heaviest-pairs pass runs instead.
//
// Both best-swap searches (this one and refinePair's) prune with the row
// bound. The gain of swapping a ∈ A with b ∈ B is computed as
// fl(fl(base_a + c_b) − 2w_ab), with base_a the row term, c_b the column
// term and w_ab ≥ 0 their affinity when the matrix is nonnegative.
// Rounding is monotone and 2w is exact, so every gain of row a is at most
// fl(base_a + maxC), maxC = max_b c_b over the same computed c_b. A row whose
// bound does not beat bestGain+1e-12 cannot replace the best swap, so the
// search skips its dense-row scatter and inner loop and still selects the
// same swap; rows are visited in the same order either way. With negative
// affinities maxC is +Inf and nothing is skipped.
func (ws *refWorkspace) refineSwaps(m *Matrix, procs []int, parts [][]int) {
	k := len(parts)
	work := 0
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			work += len(parts[i]) * len(parts[j])
		}
	}
	local := ws.local
	for pi, part := range parts {
		for _, p := range part {
			ws.partOf[local[p]] = int32(pi)
		}
	}
	if work > refineBudget {
		ws.refineCapped(m, procs, parts, work)
		return
	}

	// aff[l*k+pi] = affinity of local process l to part pi.
	n := len(procs)
	if cap(ws.aff) < n*k {
		ws.aff = make([]float64, n*k)
	}
	aff := ws.aff[:n*k]
	for i, p := range procs {
		row := aff[i*k : (i+1)*k]
		for j := range row {
			row[j] = 0
		}
		for _, e := range m.Row(p) {
			if l := local[e.Col]; l >= 0 {
				row[ws.partOf[l]] += e.W
			}
		}
	}

	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for ai := range parts {
			for bi := ai + 1; bi < len(parts); bi++ {
				if m.nonneg && !ws.pairHasCut(aff, k, parts, ai, bi) {
					// With nonnegative affinities a pair with no cut
					// affinity admits no improving swap: every gain is
					// -aff[a][ai]-aff[b][bi]-2w ≤ 0. Skipping it cannot
					// change the result.
					continue
				}
				for {
					bestGain := 0.0
					bestA, bestB := -1, -1
					maxC := math.Inf(1)
					if m.nonneg {
						maxC = math.Inf(-1)
						for _, b := range parts[bi] {
							affB := aff[int(local[b])*k:]
							maxC = max(maxC, affB[ai]-affB[bi])
						}
					}
					for _, a := range parts[ai] {
						la := local[a]
						affA := aff[int(la)*k:]
						base := affA[bi] - affA[ai]
						if base+maxC <= bestGain+1e-12 {
							continue // the row bound: no swap of a gains enough
						}
						// Dense row of a's affinities, replacing the
						// per-pair Matrix.Affinity binary search.
						for _, e := range m.Row(a) {
							if l := local[e.Col]; l >= 0 {
								ws.rowW[l] = e.W
							}
						}
						for _, b := range parts[bi] {
							lb := local[b]
							affB := aff[int(lb)*k:]
							g := base + (affB[ai] - affB[bi]) - 2*ws.rowW[lb]
							if g > bestGain+1e-12 {
								bestGain, bestA, bestB = g, a, b
							}
						}
						for _, e := range m.Row(a) {
							if l := local[e.Col]; l >= 0 {
								ws.rowW[l] = 0
							}
						}
					}
					if bestA < 0 {
						break
					}
					ws.swap(m, aff, k, parts, ai, bi, bestA, bestB)
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
}

// pairHasCut reports whether any member of parts[ai] or parts[bi] has
// affinity to the opposite part.
func (ws *refWorkspace) pairHasCut(aff []float64, k int, parts [][]int, ai, bi int) bool {
	for _, a := range parts[ai] {
		if aff[int(ws.local[a])*k+bi] != 0 {
			return true
		}
	}
	for _, b := range parts[bi] {
		if aff[int(ws.local[b])*k+ai] != 0 {
			return true
		}
	}
	return false
}

// swap exchanges a (in part ai) and b (in part bi), updating partOf and the
// incremental affinity table.
func (ws *refWorkspace) swap(m *Matrix, aff []float64, k int, parts [][]int, ai, bi, a, b int) {
	replace := func(part []int, old, new int) {
		for i, p := range part {
			if p == old {
				part[i] = new
				return
			}
		}
	}
	replace(parts[ai], a, b)
	replace(parts[bi], b, a)
	la, lb := ws.local[a], ws.local[b]
	ws.partOf[la], ws.partOf[lb] = int32(bi), int32(ai)
	for _, e := range m.Row(a) {
		if l := ws.local[e.Col]; l >= 0 && e.Col != b {
			aff[int(l)*k+ai] -= e.W
			aff[int(l)*k+bi] += e.W
		}
	}
	for _, e := range m.Row(b) {
		if l := ws.local[e.Col]; l >= 0 && e.Col != a {
			aff[int(l)*k+bi] -= e.W
			aff[int(l)*k+ai] += e.W
		}
	}
}

// refPairCut identifies one part pair and its cut affinity in the capped pass.
type refPairCut struct {
	ai, bi int32
	w      float64
}

// refineCapped is the over-budget fallback: instead of silently skipping
// refinement (the old cliff), it refines the part pairs with the heaviest
// cut affinity, heaviest first, until the swap-work budget is spent, then
// reports the degradation through OnRefineDegrade. Each pair is refined
// with pair-local affinity state, so memory stays O(n + pairs) even when
// n·k would be enormous.
func (ws *refWorkspace) refineCapped(m *Matrix, procs []int, parts [][]int, work int) {
	local, partOf := ws.local, ws.partOf
	// Cut affinity per part pair, from one sweep over the edges.
	cuts := make(map[int64]float64)
	for _, p := range procs {
		lp := local[p]
		for _, e := range m.Row(p) {
			lq := local[e.Col]
			if lq < 0 || e.Col <= p {
				continue
			}
			pa, pb := partOf[lp], partOf[lq]
			if pa == pb {
				continue
			}
			if pa > pb {
				pa, pb = pb, pa
			}
			cuts[int64(pa)<<32|int64(pb)] += e.W
		}
	}
	pairs := make([]refPairCut, 0, len(cuts))
	for key, w := range cuts {
		pairs = append(pairs, refPairCut{ai: int32(key >> 32), bi: int32(key & 0xffffffff), w: w})
	}
	// Heaviest cut first, ties by pair (the keys are unique).
	slices.SortFunc(pairs, func(x, y refPairCut) int {
		if c := cmp.Compare(y.w, x.w); c != 0 {
			return c
		}
		if c := cmp.Compare(x.ai, y.ai); c != 0 {
			return c
		}
		return cmp.Compare(x.bi, y.bi)
	})

	budget := refineBudget
	refined := 0
	for _, pc := range pairs {
		cost := len(parts[pc.ai]) * len(parts[pc.bi])
		if cost > budget {
			break
		}
		spent := ws.refinePair(m, parts, int(pc.ai), int(pc.bi), budget)
		budget -= spent
		refined++
	}
	if hook := OnRefineDegrade; hook != nil {
		hook(RefineDegrade{
			Procs:        len(procs),
			Parts:        len(parts),
			Work:         work,
			Budget:       refineBudget,
			PairsRefined: refined,
			PairsSkipped: len(pairs) - refined,
		})
	}
}

// refinePair runs the best-swap loop on one part pair with pair-local
// affinity state (affinity of each member to part A and to part B). It
// returns the scan work consumed, never exceeding budget. It borrows three
// zeroed refWorkspace arrays — gain (affinity to A), rowW (affinity to B) and
// scratch (a dense affinity row) — and re-zeroes them before returning.
func (ws *refWorkspace) refinePair(m *Matrix, parts [][]int, ai, bi, budget int) int {
	local, partOf := ws.local, ws.partOf
	toA, toB, row := ws.gain, ws.rowW, ws.scratch
	A, B := parts[ai], parts[bi]
	members := make([]int, 0, len(A)+len(B))
	members = append(members, A...)
	members = append(members, B...)
	for _, p := range members {
		var a, b float64
		for _, e := range m.Row(p) {
			l := local[e.Col]
			if l < 0 {
				continue
			}
			switch partOf[l] {
			case int32(ai):
				a += e.W
			case int32(bi):
				b += e.W
			}
		}
		toA[local[p]] = a
		toB[local[p]] = b
	}
	spent := 0
	for {
		if spent+len(A)*len(B) > budget {
			break
		}
		spent += len(A) * len(B)
		bestGain := 0.0
		bestA, bestB := -1, -1
		maxC := math.Inf(1)
		if m.nonneg {
			maxC = math.Inf(-1)
			for _, b := range B {
				lb := local[b]
				maxC = max(maxC, toA[lb]-toB[lb])
			}
		}
		for _, a := range A {
			la := local[a]
			base := toB[la] - toA[la]
			if base+maxC <= bestGain+1e-12 {
				continue // the row bound (see refineSwaps)
			}
			for _, e := range m.Row(a) {
				if l := local[e.Col]; l >= 0 {
					row[l] = e.W
				}
			}
			for _, b := range B {
				lb := local[b]
				g := base + (toA[lb] - toB[lb]) - 2*row[lb]
				if g > bestGain+1e-12 {
					bestGain, bestA, bestB = g, a, b
				}
			}
			for _, e := range m.Row(a) {
				if l := local[e.Col]; l >= 0 {
					row[l] = 0
				}
			}
		}
		if bestA < 0 {
			break
		}
		// Apply the swap on the pair-local state.
		replace := func(part []int, old, new int) {
			for i, p := range part {
				if p == old {
					part[i] = new
					return
				}
			}
		}
		replace(A, bestA, bestB)
		replace(B, bestB, bestA)
		la, lb := local[bestA], local[bestB]
		partOf[la], partOf[lb] = int32(bi), int32(ai)
		for _, e := range m.Row(bestA) {
			l := local[e.Col]
			if l < 0 || e.Col == bestB {
				continue
			}
			switch partOf[l] {
			case int32(ai), int32(bi):
				toA[l] -= e.W
				toB[l] += e.W
			}
		}
		for _, e := range m.Row(bestB) {
			l := local[e.Col]
			if l < 0 || e.Col == bestA {
				continue
			}
			switch partOf[l] {
			case int32(ai), int32(bi):
				toB[l] -= e.W
				toA[l] += e.W
			}
		}
		// The swapped processes' own affinities flip sides.
		toA[la], toB[la] = toB[la], toA[la]
		toA[lb], toB[lb] = toB[lb], toA[lb]
	}
	// Zero the borrowed arrays for the next user.
	for _, p := range members {
		toA[local[p]] = 0
		toB[local[p]] = 0
	}
	return spent
}
