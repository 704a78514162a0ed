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
//   - the greedy claim loop selects the next process with indexed max-heaps
//     keyed by the GGGP score instead of an O(n) scan over four maps, so
//     growing all parts of one tree level is O((n + m) log n) rather than
//     O(k·cap·n) with hashing on every probe. The processes the current
//     part has touched sit in a small part heap of their own, so only a
//     first touch and a part's end pay for a sift in the big heap;
//   - refineSwaps keeps its incremental part-affinity table in a flat
//     []float64 indexed by local process index and replaces the per-pair
//     binary searches of Matrix.Affinity with a dense scratch row;
//   - above refineBudget the old code silently skipped refinement; now a
//     capped pass refines the heaviest-cut part pairs within the budget and
//     reports the degradation through OnRefineDegrade, and it skips the
//     pairs whose part slacks prove that no swap can gain. When the two
//     largest slacks prove it for every pair, the pass swaps nothing and
//     neither weighs nor orders the pairs: it stops at the slacks when no
//     hook listens, and with parts of one size its report is a count of
//     the cut pairs and a division, the numbers the full pass would give;
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
// the output slice (written at disjoint indices by the workers), the idle
// workspaces and the worker-slot semaphore.
//
// The idle workspaces are a channel, not a sync.Pool: a pool registers
// itself with the runtime, which keeps it and its workspaces reachable for
// up to two more GC cycles after MapTree returns, and a GC that marks them
// sets its next heap goal twice that much higher.
type mapper struct {
	m    *Matrix
	out  []int
	idle chan *workspace
	sem  chan struct{}
	wg   sync.WaitGroup
}

func newMapper(m *Matrix, out []int) *mapper {
	p := maxParallelism()
	// The caller and p workers each hold at most one workspace.
	return &mapper{m: m, out: out, idle: make(chan *workspace, p+1), sem: make(chan struct{}, p)}
}

// getWorkspace returns an idle workspace or a new one.
func (mp *mapper) getWorkspace() *workspace {
	select {
	case ws := <-mp.idle:
		return ws
	default:
		return newWorkspace(mp.m.N())
	}
}

// putWorkspace keeps ws for the next partition call. The send never
// blocks: a goroutine holds one workspace at a time and returns it before
// it recurses, a workspace is made only when none is idle, and at most
// the caller and the workers hold one at once, so no more than cap(mp.sem)+1
// workspaces ever exist.
func (mp *mapper) putWorkspace(ws *workspace) {
	mp.idle <- ws
}

// run assigns procs to the tree and waits for every worker.
func (mp *mapper) run(node *treeNode, procs []int) {
	mp.assign(node, procs)
	mp.wg.Wait()
}

// treeNode is an alias boundary so partition.go does not import topology
// directly; MapTree converts. (See treematch.go.)

// assign recursively maps procs onto node's leaves, spawning workers for
// large sibling subtrees. It allocates nothing per tree node: partition
// leaves each child's processes in its own stretch of procs, in child order,
// so the children's subproblems are consecutive subslices.
func (mp *mapper) assign(node *treeNode, procs []int) {
	if node.Children == nil {
		mp.out[procs[0]] = node.Leaf
		return
	}
	ws := mp.getWorkspace()
	caps := slices.Grow(ws.caps[:0], len(node.Children))
	for _, c := range node.Children {
		caps = append(caps, c.Cap)
	}
	ws.caps = caps
	ws.partition(mp.m, procs, caps)
	mp.putWorkspace(ws)
	for _, c := range node.Children {
		child, part := c, procs[:c.Cap]
		procs = procs[c.Cap:]
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
	// heap holds the unclaimed processes the current part has not touched,
	// partHeap those it has; inPart[l] says which one holds l. A process
	// is in at most one of them, so they share one pos array.
	heap, partHeap claimHeap
	inPart         []bool
	// refine scratch: partOf by local index, aff the flat |procs|·k
	// part-affinity table, rowW and scratch dense affinity rows (kept
	// zeroed between uses), members the processes of one refined pair.
	partOf  []int32
	rowW    []float64
	scratch []float64
	aff     []float64
	members []int
	// caps, order and parts describe the current partition call; the parts
	// are cut from buf, one backing array for the whole subproblem.
	caps, order []int
	parts       [][]int
	buf         []int
	// stamp marks, per part, the cut pairs countCutPairs has counted.
	stamp []int32
}

func newWorkspace(n int) *workspace {
	pos := make([]int32, n)
	ws := &workspace{
		local:    make([]int32, n),
		gain:     make([]float64, n),
		total:    make([]float64, n),
		assigned: make([]bool, n),
		heap:     claimHeap{pos: pos},
		partHeap: claimHeap{pos: pos},
		inPart:   make([]bool, n),
		partOf:   make([]int32, n),
		rowW:     make([]float64, n),
		scratch:  make([]float64, n),
		buf:      make([]int, n),
	}
	for i := range ws.local {
		ws.local[i] = -1
	}
	return ws
}

// heapEntry is the claim-heap key of one unclaimed process: its current
// GGGP score and gain, and its local index l.
type heapEntry struct {
	score, gain float64
	l           int32
}

// claimHeap is an indexed 4-ary max-heap of unclaimed processes of one
// subproblem, ordered by (score desc, gain desc, l asc) — the exact
// selection order of the reference greedy loop (local order is global id
// order). pos[l] is the slot of local process l while the heap holds it;
// only the heap holding l writes pos[l].
//
// partition splits the unclaimed processes between two of these heaps. The
// big one holds every process the part being grown has not touched, each
// keyed (−total, 0, l); it is only sifted when a process leaves it on its
// first touch or comes back when the part is complete. The part heap holds
// the touched ones, keyed (2g − total, g, l), and takes every later gain
// update, in a heap as small as the part's neighbourhood. A process has the
// same key wherever it sits (an untouched one is the g = 0 case), and
// heapBetter is a total order on distinct processes, so the better of the two
// tops is the process a single heap of all of them would pop: the sequence
// of claims does not depend on the split, the arity or the sifting, and the
// layout is free to be the cheapest one. Sifts move a hole and write each
// entry once.
type claimHeap struct {
	s   []heapEntry
	pos []int32
}

func heapBetter(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.l < b.l
}

// put writes e into slot i.
func (h *claimHeap) put(i int, e heapEntry) {
	h.s[i] = e
	h.pos[e.l] = int32(i)
}

// heapify orders h.s, whose pos entries are already set, in O(n): it sifts
// down every inner node, from the parent of the last entry back to the root.
func (h *claimHeap) heapify() {
	for i := (len(h.s)+2)/4 - 1; i >= 0; i-- {
		h.siftDown(i, h.s[i])
	}
}

// push adds e to the heap.
func (h *claimHeap) push(e heapEntry) {
	h.s = append(h.s, e)
	h.siftUp(len(h.s)-1, e)
}

// pop removes the best entry and returns its process.
func (h *claimHeap) pop() int32 {
	top := h.s[0].l
	last := len(h.s) - 1
	e := h.s[last]
	h.s = h.s[:last]
	if last > 0 {
		h.siftDown(0, e)
	}
	return top
}

// remove takes process l out of the heap: the last entry fills its slot.
func (h *claimHeap) remove(l int32) {
	i := int(h.pos[l])
	last := len(h.s) - 1
	e := h.s[last]
	h.s = h.s[:last]
	if i < last {
		h.fix(i, e)
	}
}

// rekey gives process l the key (score, gain) and restores the heap order.
func (h *claimHeap) rekey(l int32, score, gain float64) {
	h.fix(int(h.pos[l]), heapEntry{score: score, gain: gain, l: l})
}

// fix places e into the heap at the hole i, sifting it up or down.
func (h *claimHeap) fix(i int, e heapEntry) {
	if i > 0 && heapBetter(e, h.s[(i-1)/4]) {
		h.siftUp(i, e)
	} else {
		h.siftDown(i, e)
	}
}

// siftUp places e into the heap at or above the hole i.
func (h *claimHeap) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !heapBetter(e, h.s[parent]) {
			break
		}
		h.put(i, h.s[parent])
		i = parent
	}
	h.put(i, e)
}

// siftDown places e into the subheap rooted at the hole i.
func (h *claimHeap) siftDown(i int, e heapEntry) {
	s := h.s
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
		h.put(i, s[best])
		i = best
	}
	h.put(i, e)
}

// partition splits procs into len(caps) parts with |part[i]| = caps[i],
// keeping high affinities inside parts: greedy graph growing (each part is
// grown by the unassigned process maximizing affinity-to-part minus
// affinity-to-outside, the GGGP criterion) followed by the bounded
// Kernighan-Lin swap refinement between part pairs. It rewrites procs in
// place, part after part in caps order and each part ascending, and returns
// the parts as subslices of procs; the outer slice is the workspace's and
// is only valid until its next partition call.
func (ws *workspace) partition(m *Matrix, procs []int, caps []int) [][]int {
	k := len(caps)
	parts := slices.Grow(ws.parts[:0], k)[:k]
	ws.parts = parts
	if k == 1 {
		parts[0] = procs
		return parts
	}

	local := ws.local
	for i, p := range procs {
		local[p] = int32(i)
	}
	h, ph := &ws.heap, &ws.partHeap
	h.s = slices.Grow(h.s[:0], len(procs))
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
		h.s = append(h.s, heapEntry{score: -s, gain: 0, l: int32(i)})
		h.pos[i] = int32(i)
	}
	h.heapify()

	// Each part is grown in its own stretch of one backing array.
	buf := ws.buf[:len(procs)]
	off := 0
	for i, c := range caps {
		parts[i] = buf[off : off : off+c]
		off += c
	}

	// Largest parts first, ties by index (the keys are unique).
	order := slices.Grow(ws.order[:0], k)
	for i := range k {
		order = append(order, i)
	}
	ws.order = order
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(caps[b], caps[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, pi := range order {
		want := caps[pi]
		part := parts[pi]
		for len(part) < want {
			var li int32
			if len(ph.s) > 0 && (len(h.s) == 0 || heapBetter(ph.s[0], h.s[0])) {
				li = ph.pop()
				ws.inPart[li] = false
				ws.gain[li] = 0
			} else {
				li = h.pop()
			}
			ws.assigned[li] = true
			best := procs[li]
			part = append(part, best)
			// Claiming best removes it from its neighbours' remaining
			// totals and adds its affinity to their gain toward this part.
			// A neighbour's first touch moves it to the part heap.
			for _, e := range m.Row(best) {
				l := local[e.Col]
				if l < 0 || ws.assigned[l] {
					continue
				}
				ws.total[l] -= e.W
				ws.gain[l] += e.W
				g := ws.gain[l]
				score := g - (ws.total[l] - g)
				if ws.inPart[l] {
					ph.rekey(l, score, g)
				} else {
					h.remove(l)
					ws.inPart[l] = true
					ph.push(heapEntry{score: score, gain: g, l: l})
				}
			}
		}
		parts[pi] = part
		// The next part starts from zero gain: the processes this part
		// touched and did not claim go back to the big heap.
		for _, e := range ph.s {
			ws.inPart[e.l] = false
			ws.gain[e.l] = 0
			h.push(heapEntry{score: -ws.total[e.l], gain: 0, l: e.l})
		}
		ph.s = ph.s[:0]
	}

	ws.refineSwaps(m, procs, parts)

	for _, p := range procs {
		local[p] = -1
	}
	for _, part := range parts {
		slices.Sort(part)
	}
	copy(procs, buf)
	for i, c := range caps {
		parts[i] = procs[:c:c]
		procs = procs[c:]
	}
	return parts
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
	// The pairwise swap work Σ_{i<j} |A_i|·|A_j| is (S² − Σ|A_i|²)/2, with
	// S = Σ|A_i| = len(procs): the same integer in O(k).
	work := len(procs) * len(procs)
	for _, part := range parts {
		work -= len(part) * len(part)
	}
	work /= 2
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
// with pair-local affinity state, so memory stays O(n + cut edges) even
// when n·k would be enormous. A pair whose two part slacks sum to at most 1e-12
// is not searched: its one fruitless iteration is charged to the budget and
// the pair counts as refined, exactly as if it had run.
//
// The slacks come first. Let s1 and s2 be the two largest. fl(x + y) is
// monotone in each operand, so when fl(s1 + s2) ≤ 1e-12 no pair's slacks
// sum to more, every pair is skipped and the pass swaps nothing: the
// weighted pairs and their order would only feed the degrade report. So
// without a hook the pass ends there. With one, and parts all of one size
// c, every pair costs c², and the pass refines pairs in order until the
// budget cannot pay for the next: min(#cut pairs, refineBudget / c²) of
// them, whichever pairs they are. Counting the cut pairs needs neither
// their weights nor their order. Parts of mixed sizes, or a pair that may
// gain, take the full pass.
func (ws *workspace) refineCapped(m *Matrix, procs []int, parts [][]int, work int) {
	hook := OnRefineDegrade
	// slack[i] bounds every swap gain part i can contribute (partSlack).
	// A negative entry voids the bound, and then no pair is skipped.
	var slack []float64
	if m.nonneg {
		slack = make([]float64, len(parts))
		for i, part := range parts {
			slack[i] = ws.partSlack(m, part)
		}
		if !slacksMayGain(slack) {
			if hook == nil {
				return
			}
			if c := len(parts[0]); allOfSize(parts, c) {
				cut := ws.countCutPairs(m, parts)
				refined := min(cut, refineBudget/(c*c))
				hook(degradeOf(procs, parts, work, refined, cut))
				return
			}
		}
	}

	pairs := ws.cutPairs(m, procs, len(parts))
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
		refined++
		if slack != nil && slack[pc.ai]+slack[pc.bi] <= 1e-12 {
			// No swap of this pair can gain more than 1e-12, so
			// refinePair would run one fruitless iteration: charge it.
			budget -= cost
			continue
		}
		spent, swapped := ws.refinePair(m, parts, int(pc.ai), int(pc.bi), budget)
		budget -= spent
		if swapped && slack != nil {
			slack[pc.ai] = ws.partSlack(m, parts[pc.ai])
			slack[pc.bi] = ws.partSlack(m, parts[pc.bi])
		}
	}
	if hook != nil {
		hook(degradeOf(procs, parts, work, refined, len(pairs)))
	}
}

// degradeOf is the report of a capped pass that refined refined of the cut
// part pairs.
func degradeOf(procs []int, parts [][]int, work, refined, cut int) RefineDegrade {
	return RefineDegrade{
		Procs:        len(procs),
		Parts:        len(parts),
		Work:         work,
		Budget:       refineBudget,
		PairsRefined: refined,
		PairsSkipped: cut - refined,
	}
}

// slacksMayGain reports whether some two of the part slacks sum to more
// than 1e-12, the least gain the swap search takes, or a slack is NaN. It
// adds only the two largest: rounding is monotone, so no other pair sums
// to more.
func slacksMayGain(slack []float64) bool {
	s1, s2 := math.Inf(-1), math.Inf(-1)
	for _, s := range slack {
		switch {
		case math.IsNaN(s):
			return true
		case s > s1:
			s1, s2 = s, s1
		case s > s2:
			s2 = s
		}
	}
	return !(s1+s2 <= 1e-12)
}

// allOfSize reports whether every part has c members.
func allOfSize(parts [][]int, c int) bool {
	for _, part := range parts {
		if len(part) != c {
			return false
		}
	}
	return true
}

// countCutPairs counts the pairs of parts with a cut edge between them, the
// pairs cutPairs returns, without summing or ordering them. The rows are
// symmetric, so every cut edge shows in the row of its member in the lower
// part; stamp[pb] holds the last lower part counted with part pb.
func (ws *workspace) countCutPairs(m *Matrix, parts [][]int) int {
	local, partOf := ws.local, ws.partOf
	stamp := slices.Grow(ws.stamp[:0], len(parts))[:len(parts)]
	ws.stamp = stamp
	for i := range stamp {
		stamp[i] = -1
	}
	cut := 0
	for pa, part := range parts {
		for _, p := range part {
			for _, e := range m.Row(p) {
				l := local[e.Col]
				if l < 0 {
					continue
				}
				if pb := partOf[l]; pb > int32(pa) && stamp[pb] != int32(pa) {
					stamp[pb] = int32(pa)
					cut++
				}
			}
		}
	}
	return cut
}

// cutPairs returns every pair of the k parts with a cut edge between them
// and the pair's cut affinity. Two sweeps over the edges count and then
// place each cut edge in the bucket of its lower part, in sweep order; a
// stable sort of each bucket by the higher part brings each pair's edges
// together, still in sweep order, and each run is summed in place. These
// are the sums, added in the same order, that one sweep accumulating into
// a map would make, and they cost two allocations however many pairs.
func (ws *workspace) cutPairs(m *Matrix, procs []int, k int) []pairCut {
	local, partOf := ws.local, ws.partOf
	end := make([]int, k+1)
	var pairs []pairCut
	for fill := range 2 {
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
				if fill == 0 {
					end[pa+1]++
				} else {
					pairs[end[pa]] = pairCut{ai: pa, bi: pb, w: e.W}
					end[pa]++
				}
			}
		}
		if fill == 0 {
			for i := 1; i <= k; i++ {
				end[i] += end[i-1]
			}
			pairs = make([]pairCut, end[k])
		}
	}
	// Bucket i now ends at end[i] and starts where bucket i-1 ends.
	merged := pairs[:0]
	lo := 0
	for _, hi := range end[:k] {
		bucket := pairs[lo:hi]
		slices.SortStableFunc(bucket, func(x, y pairCut) int { return cmp.Compare(x.bi, y.bi) })
		for i := 0; i < len(bucket); {
			pc := pairCut{ai: bucket[i].ai, bi: bucket[i].bi}
			for ; i < len(bucket) && bucket[i].bi == pc.bi; i++ {
				pc.w += bucket[i].w
			}
			merged = append(merged, pc)
		}
		lo = hi
	}
	return merged
}

// partSlack returns the slack of a part in the capped pass: the maximum
// over its members p of fl(ext(p) − int(p)), where int(p) and ext(p) are
// p's affinities to its own part and to every other part of the
// subproblem, each summed in row order. On a nonnegative matrix no swap
// between parts A and B gains more than fl(slack_A + slack_B) in
// refinePair's first iteration (docs/PERFORMANCE.md, "TreeMatch"). A swap
// between A and B leaves every other part's slack bit for bit as it was:
// the members of a third part see the same set of terms in both sums.
func (ws *workspace) partSlack(m *Matrix, part []int) float64 {
	local, partOf := ws.local, ws.partOf
	slack := math.Inf(-1)
	for _, p := range part {
		own := partOf[local[p]]
		var in, ext float64
		for _, e := range m.Row(p) {
			l := local[e.Col]
			if l < 0 {
				continue
			}
			if partOf[l] == own {
				in += e.W
			} else {
				ext += e.W
			}
		}
		slack = max(slack, ext-in)
	}
	return slack
}

// refinePair runs the best-swap loop on one part pair with pair-local
// affinity state (affinity of each member to part A and to part B). It
// returns the scan work consumed, never exceeding budget, and whether it
// swapped. It borrows three zeroed workspace arrays — gain (affinity to
// A), rowW (affinity to B) and scratch (a dense affinity row) — and
// re-zeroes them before returning.
func (ws *workspace) refinePair(m *Matrix, parts [][]int, ai, bi, budget int) (spent int, swapped bool) {
	local, partOf := ws.local, ws.partOf
	toA, toB, row := ws.gain, ws.rowW, ws.scratch
	A, B := parts[ai], parts[bi]
	members := append(append(ws.members[:0], A...), B...)
	ws.members = members
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
		swapped = true
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
	return spent, swapped
}
