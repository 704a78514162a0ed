package treematch

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// This file holds the dense partitioning kernel behind MapTree. It computes
// exactly the same placements as the original map-based greedy (the
// reference copy lives in reference_test.go) but with slice-indexed state:
//
//   - the greedy claim loop selects the next process with a lazy max-heap
//     keyed by the GGGP score instead of an O(n) scan over four maps, so
//     growing all parts of one tree level is O((n + m) log n) rather than
//     O(k·cap·n) with hashing on every probe;
//   - refineSwaps keeps its incremental part-affinity table in a flat
//     []float64 indexed by local process index and replaces the per-pair
//     binary searches of Matrix.Affinity with a dense scratch row;
//   - above refineBudget the old code silently skipped refinement; now a
//     capped pass refines the heaviest-cut part pairs within the budget and
//     reports the degradation through OnRefineDegrade;
//   - sibling subtrees are assigned in parallel by a bounded worker pool
//     (subproblems are independent after partition returns).

// RefineDegrade describes a refinement pass that exceeded refineBudget and
// fell back to the capped heaviest-pairs-first pass.
type RefineDegrade struct {
	// Procs and Parts identify the subproblem (processes partitioned into
	// parts at one tree node).
	Procs, Parts int
	// Work is the full pairwise swap work Σ|A|·|B|; Budget is the cap it
	// exceeded.
	Work, Budget int
	// PairsRefined and PairsSkipped count the part pairs with nonzero cut
	// affinity that were and were not refined under the budget.
	PairsRefined, PairsSkipped int
}

// OnRefineDegrade, when non-nil, is invoked every time a partition's
// refinement runs in capped mode instead of in full. It may be called
// concurrently from the parallel subtree workers and must be safe for that.
// Callers (the reorder pipeline, the experiment drivers) use it to surface
// quality degradation on very large instances through their telemetry or
// logging; the process-wide variable should be set before mapping starts.
var OnRefineDegrade func(RefineDegrade)

// refineBudget bounds the pairwise swap work per subproblem so huge
// instances (Table 1 scale) get the capped heaviest-pairs refinement
// rather than going quadratic. It is a variable only for tests.
var refineBudget = 1 << 24

// maxParallelism bounds the subtree worker pool.
func maxParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// parallelThreshold is the smallest subproblem handed to a worker
// goroutine; smaller ones are cheaper to recurse inline.
const parallelThreshold = 256

// mapper carries the shared state of one MapTree invocation: the matrix,
// the output slice (written at disjoint indices by the workers), the
// workspace pool and the worker-slot semaphore.
type mapper struct {
	m   *Matrix
	out []int
	ws  sync.Pool
	sem chan struct{}
	wg  sync.WaitGroup
}

func newMapper(m *Matrix, out []int) *mapper {
	n := m.N()
	mp := &mapper{m: m, out: out, sem: make(chan struct{}, maxParallelism())}
	mp.ws.New = func() any { return newWorkspace(n) }
	return mp
}

// run assigns procs to the tree and waits for every worker.
func (mp *mapper) run(node *treeNode, procs []int) {
	mp.assign(node, procs)
	mp.wg.Wait()
}

// treeNode is an alias boundary so partition.go does not import topology
// directly; MapTree converts. (See treematch.go.)

// assign recursively maps procs onto node's leaves, spawning workers for
// large sibling subtrees.
func (mp *mapper) assign(node *treeNode, procs []int) {
	if node.Children == nil {
		mp.out[procs[0]] = node.Leaf
		return
	}
	caps := make([]int, len(node.Children))
	for i, c := range node.Children {
		caps[i] = c.Cap
	}
	ws := mp.ws.Get().(*workspace)
	parts := ws.partition(mp.m, procs, caps)
	mp.ws.Put(ws)
	for i, c := range node.Children {
		child, part := c, parts[i]
		if len(part) >= parallelThreshold {
			select {
			case mp.sem <- struct{}{}:
				mp.wg.Add(1)
				go func() {
					defer mp.wg.Done()
					defer func() { <-mp.sem }()
					mp.assign(child, part)
				}()
				continue
			default:
			}
		}
		mp.assign(child, part)
	}
}

// workspace is the dense per-subproblem state, sized once for the whole
// matrix and reused across partition calls (one workspace per worker).
type workspace struct {
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
	heap    gainHeap
	// refine scratch: partOf by local index, aff the flat |procs|·k
	// part-affinity table, rowW and scratch dense affinity rows (kept
	// zeroed between uses).
	partOf  []int32
	rowW    []float64
	scratch []float64
	aff     []float64
}

func newWorkspace(n int) *workspace {
	ws := &workspace{
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

// heapEntry is one lazy-heap candidate: the process and the (score, gain)
// it was pushed with. Entries are validated against the current values on
// pop; stale ones are discarded.
type heapEntry struct {
	score, gain float64
	p           int32
}

// gainHeap is a 4-ary max-heap ordered by (score desc, gain desc, p asc) —
// the exact selection order of the reference greedy loop. heapBetter is a
// total order up to identical entries, so the sequence of pops does not
// depend on the heap's arity or sifting: the layout is free to be the
// cheapest one. Sifts move a hole and write the entry once instead of
// swapping at every level.
type gainHeap []heapEntry

func heapBetter(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.p < b.p
}

func (h *gainHeap) push(e heapEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !heapBetter(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

func (h *gainHeap) pop() heapEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	*h = s[:last]
	if last > 0 {
		siftDown(s[:last], 0, s[last])
	}
	return top
}

// siftDown places e into the subheap rooted at the hole i.
func siftDown(s []heapEntry, i int, e heapEntry) {
	for {
		c := 4*i + 1
		if c >= len(s) {
			break
		}
		best, end := c, min(c+4, len(s))
		for j := c + 1; j < end; j++ {
			if heapBetter(s[j], s[best]) {
				best = j
			}
		}
		if !heapBetter(s[best], e) {
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
func (ws *workspace) partition(m *Matrix, procs []int, caps []int) [][]int {
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
		heap = append(heap, heapEntry{score: -s, gain: 0, p: int32(p)})
	}
	// Heapify the initial batch in O(n): sift down every inner node, from
	// the parent of the last entry back to the root.
	for i := (len(heap)+2)/4 - 1; i >= 0; i-- {
		siftDown(heap, i, heap[i])
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
				ws.heap.push(heapEntry{score: g - (ws.total[l] - g), gain: g, p: int32(e.Col)})
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
			ws.heap.push(heapEntry{score: -ws.total[l], gain: 0, p: int32(procs[l])})
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
func (ws *workspace) popBest() int {
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
func (ws *workspace) refineSwaps(m *Matrix, procs []int, parts [][]int) {
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
func (ws *workspace) pairHasCut(aff []float64, k int, parts [][]int, ai, bi int) bool {
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
func (ws *workspace) swap(m *Matrix, aff []float64, k int, parts [][]int, ai, bi, a, b int) {
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

// pairCut identifies one part pair and its cut affinity in the capped pass.
type pairCut struct {
	ai, bi int32
	w      float64
}

// refineCapped is the over-budget fallback: instead of silently skipping
// refinement (the old cliff), it refines the part pairs with the heaviest
// cut affinity, heaviest first, until the swap-work budget is spent, then
// reports the degradation through OnRefineDegrade. Each pair is refined
// with pair-local affinity state, so memory stays O(n + pairs) even when
// n·k would be enormous.
func (ws *workspace) refineCapped(m *Matrix, procs []int, parts [][]int, work int) {
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
	pairs := make([]pairCut, 0, len(cuts))
	for key, w := range cuts {
		pairs = append(pairs, pairCut{ai: int32(key >> 32), bi: int32(key & 0xffffffff), w: w})
	}
	// Heaviest cut first, ties by pair (the keys are unique).
	slices.SortFunc(pairs, func(x, y pairCut) int {
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
// zeroed workspace arrays — gain (affinity to A), rowW (affinity to B) and
// scratch (a dense affinity row) — and re-zeroes them before returning.
func (ws *workspace) refinePair(m *Matrix, parts [][]int, ai, bi, budget int) int {
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
