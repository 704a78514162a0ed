package treematch

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"mpimon/internal/topology"
)

// randSparse builds a random sparse symmetric matrix of n processes with
// roughly degree nonzero peers per process.
func randSparse(n, degree int, seed int64) *Matrix {
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			j := rng.Intn(n)
			if j != i {
				m.Add(i, j, float64(rng.Intn(1000)+1))
			}
		}
	}
	m.Finish()
	return m
}

// testTopos returns topology/tree shapes covering balanced, multi-switch
// and restricted (uneven) cases for a 48-process instance.
func testTrees(t *testing.T) []*topology.Tree {
	t.Helper()
	balanced := topology.MustNew(4, 2, 6).FullTree()
	multi, err := topology.NewWithNodeDepth(2, 2, 2, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Restricted: 48 of the 64 leaves of a 4x4x4 machine, skipping every
	// fourth core — an uneven tree.
	topo := topology.MustNew(4, 4, 4)
	var keep []int
	for l := 0; l < topo.Leaves(); l++ {
		if l%4 != 3 {
			keep = append(keep, l)
		}
	}
	restricted, err := topo.Restrict(keep)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Tree{balanced, multi.FullTree(), restricted}
}

// TestPartitionMatchesReference checks that on randomized sparse matrices
// the dense kernel reproduces the seed map-based algorithm exactly: the
// same placement, hence the same cost.
func TestPartitionMatchesReference(t *testing.T) {
	trees := testTrees(t)
	for seed := int64(1); seed <= 12; seed++ {
		for ti, tree := range trees {
			m := randSparse(48, 4, seed)
			got, err := MapTree(m, tree)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMapTree(m, tree)
			if err != nil {
				t.Fatal(err)
			}
			for p := range got {
				if got[p] != want[p] {
					t.Fatalf("seed %d tree %d: placement diverges from reference at process %d: got %v want %v",
						seed, ti, p, got, want)
				}
			}
		}
	}
}

// TestClaimHeapShapesMatchReference drives the claim loop's two heaps
// through shapes that random sparse matrices seldom take, on every test
// tree: disconnected cliques, where the part heap runs empty in the middle
// of a part and the next claim comes from the big heap; stored zero-weight
// entries, whose touch leaves the gain at 0; and negative entries. Each
// placement must be the reference's. A negative entry can make the uncapped
// swap pass cycle (see FuzzMapTree), so that case runs under a budget that
// sends every node that could swap to the capped pass, against the capped
// reference.
func TestClaimHeapShapesMatchReference(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(5))
	cliques := NewMatrix(n)
	for lo := 0; lo < n; lo += 5 {
		for i := lo; i < min(lo+5, n); i++ {
			for j := i + 1; j < min(lo+5, n); j++ {
				cliques.Add(i, j, float64(rng.Intn(1000)+1))
			}
		}
	}
	// A pair added with w and then -w keeps an entry of weight 0.
	zeros := NewMatrix(n)
	for i := 0; i < n; i++ {
		for d := 0; d < 4; d++ {
			if j := rng.Intn(n); j != i {
				w := float64(rng.Intn(1000) + 1)
				zeros.Add(i, j, w)
				if d%2 == 0 {
					zeros.Add(i, j, -w)
				}
			}
		}
	}
	zeros.Finish()
	stored := 0
	for i := 0; i < n; i++ {
		for _, e := range zeros.Row(i) {
			if e.W == 0 {
				stored++
			}
		}
	}
	if stored == 0 || !zeros.nonneg {
		t.Fatalf("zero-weight matrix has %d stored zeros, nonneg %v", stored, zeros.nonneg)
	}
	negative := fuzzMatrix(rng, n, 4, 4)
	if negative.nonneg {
		t.Fatal("negative matrix has no negative entry")
	}

	for ti, tree := range testTrees(t) {
		for _, tc := range []struct {
			name string
			m    *Matrix
		}{{"cliques", cliques}, {"zeros", zeros}} {
			got, err := MapTree(tc.m, tree)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMapTree(tc.m, tree)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s tree %d: placement %v, reference %v", tc.name, ti, got, want)
			}
		}
		restore := SetRefineBudget(minSwapWork(tree) - 1)
		got, err := MapTree(negative, tree)
		if err != nil {
			t.Fatal(err)
		}
		want := refCappedMapTree(negative, tree)
		restore()
		if !slices.Equal(got, want) {
			t.Errorf("negative tree %d: placement %v, reference %v", ti, got, want)
		}
	}
}

// TestPartitionNeverWorseThanReference is the property the ISSUE asks for:
// on randomized sparse matrices the dense partition never yields a higher
// placement cost than the seed greedy implementation.
func TestPartitionNeverWorseThanReference(t *testing.T) {
	topo := topology.MustNew(2, 2, 2, 2)
	f := func(seed int64) bool {
		m := randSparse(16, 3, seed)
		tree := topo.FullTree()
		got, err := MapTree(m, tree)
		if err != nil {
			return false
		}
		want, err := refMapTree(m, tree)
		if err != nil {
			return false
		}
		return Cost(m, got, topo) <= Cost(m, want, topo)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionDeterministic maps the same matrix repeatedly (the parallel
// workers must not introduce schedule-dependent results).
func TestPartitionDeterministic(t *testing.T) {
	topo := topology.MustNew(8, 2, 4)
	m := randSparse(64, 5, 42)
	first, err := MapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := MapTree(m, topo.FullTree())
		if err != nil {
			t.Fatal(err)
		}
		for p := range first {
			if again[p] != first[p] {
				t.Fatalf("run %d: nondeterministic placement at process %d", i, p)
			}
		}
	}
}

// TestPartitionRespectsCaps drives the kernel directly: every part must
// have exactly its requested capacity and the parts must partition procs.
func TestPartitionRespectsCaps(t *testing.T) {
	m := randSparse(31, 4, 7)
	procs := make([]int, 31)
	for i := range procs {
		procs[i] = i
	}
	for _, caps := range [][]int{
		{10, 21},
		{1, 30},
		{7, 8, 16},
		{1, 1, 1, 28},
		{5, 5, 5, 5, 5, 6},
	} {
		ws := newWorkspace(31)
		parts := ws.partition(m, procs, caps)
		seen := make(map[int]bool)
		for i, part := range parts {
			if len(part) != caps[i] {
				t.Fatalf("caps %v: part %d has %d members, want %d", caps, i, len(part), caps[i])
			}
			for _, p := range part {
				if seen[p] {
					t.Fatalf("caps %v: process %d in two parts", caps, p)
				}
				seen[p] = true
			}
		}
		if len(seen) != len(procs) {
			t.Fatalf("caps %v: %d processes assigned, want %d", caps, len(seen), len(procs))
		}
		// The workspace must come back clean for reuse.
		for i := range ws.local {
			if ws.local[i] != -1 {
				t.Fatalf("caps %v: workspace local[%d] not reset", caps, i)
			}
		}
		for i := range ws.rowW {
			if ws.rowW[i] != 0 || ws.scratch[i] != 0 || ws.gain[i] != 0 || ws.inPart[i] {
				t.Fatalf("caps %v: workspace scratch row %d not reset", caps, i)
			}
		}
	}
}

// TestRefineDegradeHook shrinks the budget so refinement must fall back to
// the capped pass, and checks the degradation is surfaced with plausible
// numbers — and that the capped refinement still never places worse than
// the (budget-skipped) reference.
func TestRefineDegradeHook(t *testing.T) {
	oldBudget := refineBudget
	refineBudget = 64
	var mu sync.Mutex
	var events []RefineDegrade
	OnRefineDegrade = func(d RefineDegrade) {
		mu.Lock()
		events = append(events, d)
		mu.Unlock()
	}
	defer func() {
		refineBudget = oldBudget
		OnRefineDegrade = nil
	}()

	topo := topology.MustNew(4, 2, 6)
	m := randSparse(48, 4, 5)
	got, err := MapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no degrade event for a 48-process partition under a 64-swap budget")
	}
	for _, d := range events {
		if d.Work <= d.Budget {
			t.Fatalf("degrade event with work %d within budget %d", d.Work, d.Budget)
		}
		if d.Procs <= 0 || d.Parts <= 1 {
			t.Fatalf("implausible degrade event %+v", d)
		}
	}
	// Reference under the same tiny budget skips refinement entirely; the
	// capped pass must not be worse.
	want, err := refMapTree(m, topo.FullTree())
	if err != nil {
		t.Fatal(err)
	}
	if gc, wc := Cost(m, got, topo), Cost(m, want, topo); gc > wc+1e-9 {
		t.Fatalf("capped refinement cost %v worse than unrefined reference %v", gc, wc)
	}
}

// TestMapTreeParallelLargeMatchesReference checks exact equivalence on 768
// processes. On the 3 x 2 x 8 x 16 machine each of the root's three parts
// reaches parallelThreshold, so the worker pool maps them.
func TestMapTreeParallelLargeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	m := randSparse(768, 6, 11)
	for _, topo := range []*topology.Topology{topology.MustNew(32, 2, 12), topology.MustNew(3, 2, 8, 16)} {
		got, err := MapTree(m, topo.FullTree())
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMapTree(m, topo.FullTree())
		if err != nil {
			t.Fatal(err)
		}
		for p := range got {
			if got[p] != want[p] {
				t.Fatalf("%v: parallel placement diverges from reference at process %d", topo, p)
			}
		}
	}
}

// fuzzMatrix builds the random matrix of one FuzzMapTree input. kind&1
// selects real weights in (0, 4] over integer weights in [1, 1000]; kind&2
// leaves about a quarter of the processes with an empty row; kind&4 makes
// about one entry in eight negative.
func fuzzMatrix(rng *rand.Rand, n, degree int, kind uint8) *Matrix {
	m := NewMatrix(n)
	empty := make([]bool, n)
	if kind&2 != 0 {
		for i := range empty {
			empty[i] = rng.Intn(4) == 0
		}
	}
	for i := 0; i < n; i++ {
		for d := 0; d < degree && !empty[i]; d++ {
			j := rng.Intn(n)
			if j == i || empty[j] {
				continue
			}
			w := float64(rng.Intn(1000) + 1)
			if kind&1 != 0 {
				w = 4 - 4*rng.Float64()
			}
			if kind&4 != 0 && rng.Intn(8) == 0 {
				w = -w
			}
			m.Add(i, j, w)
		}
	}
	m.Finish()
	return m
}

// minSwapWork is the smallest swap work Σ|A|·|B| over the inner nodes of
// the tree that have two or more parts, one of them with two or more
// processes (math.MaxInt if there is none). Under a budget below it, every
// node whose refinement could swap takes the capped pass.
func minSwapWork(node *topology.Tree) int {
	least := math.MaxInt
	work, sum, big := 0, 0, false
	for _, c := range node.Children {
		work += sum * c.Cap
		sum += c.Cap
		big = big || c.Cap > 1
		least = min(least, minSwapWork(c))
	}
	if big && len(node.Children) > 1 {
		least = min(least, work)
	}
	return least
}

// FuzzMapTree checks MapTree against the kernel it replaced
// (refCappedMapTree, reference_test.go) on random matrices of at most 256
// processes: the same placement and the same degrade events, under any
// refinement budget from 1 up to the full swap work, on full trees and on
// trees restricted to a random subset of leaves. Small budgets put every
// level through the capped pass, whose skipped pairs must be exactly the
// pairs the old search found no swap in.
//
// The target also runs the capped pass alone on a random partition of the
// same matrix, against the reference's.
//
// With a negative entry the uncapped pass of both kernels can swap in a
// cycle forever (swap leaves the swapped processes' own affinity rows
// stale, which overstates later gains when a weight is negative), so such
// inputs take a budget below minSwapWork: every node that could swap is
// refined by the capped pass, which the budget bounds.
func FuzzMapTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, a, b, c, degree, kind uint8, budget uint32, restrict bool) {
		topo := topology.MustNew(1+int(a%8), 1+int(b%8), 1+int(c%8))
		rng := rand.New(rand.NewSource(seed))
		tree := topo.FullTree()
		if restrict || topo.Leaves() > 256 {
			keep := rng.Perm(topo.Leaves())[:1+rng.Intn(min(topo.Leaves(), 256))]
			var err error
			if tree, err = topo.Restrict(keep); err != nil {
				t.Fatal(err)
			}
		}
		n := tree.Cap
		m := fuzzMatrix(rng, n, 1+int(degree%8), kind)

		limit := max(1, n*n/2)
		if kind&4 != 0 {
			limit = min(limit, minSwapWork(tree)-1)
		}
		defer SetRefineBudget(1 + int(budget)%limit)()
		var events []RefineDegrade
		prev := OnRefineDegrade
		OnRefineDegrade = func(d RefineDegrade) { events = append(events, d) }
		defer func() { OnRefineDegrade = prev }()
		got, err := MapTree(m, tree)
		if err != nil {
			t.Fatal(err)
		}
		gotEvents := events
		events = nil
		want := refCappedMapTree(m, tree)
		if !slices.Equal(got, want) {
			t.Fatalf("placement %v, reference %v", got, want)
		}
		byValue := func(x, y RefineDegrade) int {
			return cmp.Or(cmp.Compare(x.Procs, y.Procs), cmp.Compare(x.Parts, y.Parts), cmp.Compare(x.Work, y.Work),
				cmp.Compare(x.PairsRefined, y.PairsRefined), cmp.Compare(x.PairsSkipped, y.PairsSkipped))
		}
		slices.SortFunc(gotEvents, byValue)
		slices.SortFunc(events, byValue)
		if !slices.Equal(gotEvents, events) {
			t.Fatalf("degrade events %+v, reference %+v", gotEvents, events)
		}

		// The capped pass alone, on a random partition into parts of the
		// root's sizes: greedy parts seldom hold a part whose slack a swap
		// raises, random parts often do.
		if len(tree.Children) < 2 {
			return
		}
		perm := rng.Perm(n)
		var parts [][]int
		for _, c := range tree.Children {
			part := perm[:c.Cap:c.Cap]
			perm = perm[c.Cap:]
			slices.Sort(part)
			parts = append(parts, part)
		}
		checkCappedPass(t, m, parts)
	})
}

// checkCappedPass runs refineCapped on parts, a partition of all of m's
// processes, and the reference's refineCapped on a copy, under the current
// refineBudget: the parts and the degrade events must come out equal.
func checkCappedPass(t *testing.T, m *Matrix, parts [][]int) {
	t.Helper()
	n := m.N()
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	ws, ref := newWorkspace(n), newRefWorkspace(n)
	refParts := make([][]int, len(parts))
	work := 0
	for pi, part := range parts {
		refParts[pi] = slices.Clone(part)
		for _, p := range part {
			ws.local[p], ref.local[p] = int32(p), int32(p)
			ws.partOf[p], ref.partOf[p] = int32(pi), int32(pi)
			work += n - len(part)
		}
	}
	work /= 2
	var events []RefineDegrade
	prev := OnRefineDegrade
	OnRefineDegrade = func(d RefineDegrade) { events = append(events, d) }
	defer func() { OnRefineDegrade = prev }()
	ws.refineCapped(m, procs, parts, work)
	got := events
	events = nil
	ref.refineCapped(m, procs, refParts, work)
	for pi := range parts {
		if !slices.Equal(parts[pi], refParts[pi]) {
			t.Fatalf("capped pass: part %d is %v, reference %v", pi, parts[pi], refParts[pi])
		}
	}
	if !slices.Equal(got, events) {
		t.Fatalf("capped pass: degrade events %+v, reference %+v", got, events)
	}
}

// TestCappedPassEdges runs the capped pass on hand-built partitions
// against the reference. Each pair's iterations cost |A|·|B|, and a pair
// that swaps goes on until the budget cannot pay another iteration.
func TestCappedPassEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		edges  [][3]float64
		parts  [][]int
		budget int
	}{
		// The parts are P0 {6}, P1 {3, 4}, P2 {0, 1, 7}, P3 {5} and P4 {2};
		// the pairs come heaviest cut first, (P1,P2) 15, (P2,P4) 7,
		// (P1,P4) 4 and (P0,P4) 2, and the slacks are P1 15, P2 −14 and
		// P4 13. (P1,P2) is searched and swaps 4 with 0, then 3 with 4, in
		// the 12 units a budget of 16 affords. 0 leaves P2 and takes 14
		// from 7's own-part affinity to its outside one, so P2's slack
		// rises to 12. On the old slacks (P2,P4) would be skipped
		// (−14 + 13 ≤ 0), but it has an improving swap, 3 with 2, and the
		// 4 units left pay for it.
		{"second-part-slack-rises", 8,
			[][3]float64{{0, 7, 14}, {1, 4, 4}, {1, 7, 20}, {2, 3, 4}, {2, 6, 2}, {2, 7, 7}, {4, 7, 11}},
			[][]int{{6}, {3, 4}, {0, 1, 7}, {5}, {2}}, 16},
		// The parts are P0 {1, 2, 5}, P1 {4} and P2 {0, 3}, the pairs
		// (P0,P2) 14 and (P0,P1) 2, and the slacks P0 −3, P1 2 and P2 13.
		// (P0,P2) swaps 5 with 0, then 0 with 3, in the 12 units of a
		// budget of 15. 3 enters P0 with its one neighbour outside it, so
		// P0's slack rises to 1, and (P0,P1), skipped on the old slacks
		// (−3 + 2 ≤ 0), swaps 3 with 4.
		{"first-part-slack-rises", 6,
			[][3]float64{{0, 1, 14}, {0, 3, 1}, {1, 2, 19}, {1, 4, 2}, {2, 5, 3}},
			[][]int{{1, 2, 5}, {4}, {0, 3}}, 15},
		// The slacks are 0 and 2^-30, and swapping 0 with 3 gains 2^-30:
		// a pair is skipped only when its slacks sum to at most 1e-12,
		// the least gain the search takes.
		{"tiny-gain", 4,
			[][3]float64{{0, 1, 1}, {2, 3, 1 - 0x1p-30}, {0, 2, 1}, {1, 3, 1}},
			[][]int{{0, 1}, {2, 3}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMatrix(tc.n)
			for _, e := range tc.edges {
				m.Add(int(e[0]), int(e[1]), e[2])
			}
			m.Finish()
			defer SetRefineBudget(tc.budget)()
			checkCappedPass(t, m, tc.parts)
		})
	}
}

// clusterMatrix is n processes in clusters of size, every pair inside a
// cluster of affinity 10, and each process tied to one random process of
// another cluster by an affinity of 1. A part made of whole clusters gives
// each member a slack of at most 1 − 10·(size−1).
func clusterMatrix(n, size int, seed int64) *Matrix {
	m := NewMatrix(n)
	for lo := 0; lo < n; lo += size {
		for i := lo; i < lo+size; i++ {
			for j := i + 1; j < lo+size; j++ {
				m.Add(i, j, 10)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if j := rng.Intn(n); j/size != i/size {
			m.Add(i, j, 1)
		}
	}
	m.Finish()
	return m
}

// rootMayGain reports whether, on the root's greedy parts, the capped pass
// could take a swap: whether some two part slacks sum to more than 1e-12.
// refPartition skips refinement over budget, so its parts are the ones the
// capped pass starts from.
func rootMayGain(m *Matrix, tree *topology.Tree) (mayGain, uniform bool) {
	n := m.N()
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	caps := make([]int, len(tree.Children))
	for i, c := range tree.Children {
		caps[i] = c.Cap
	}
	parts := refPartition(m, procs, caps)
	ws := newWorkspace(n)
	slack := make([]float64, len(parts))
	for pi, part := range parts {
		for _, p := range part {
			ws.local[p], ws.partOf[p] = int32(p), int32(pi)
		}
	}
	for pi, part := range parts {
		slack[pi] = ws.partSlack(m, part)
	}
	return slacksMayGain(slack), allOfSize(parts, len(parts[0]))
}

// TestCappedShortcutMatchesReference runs MapTree under lowered refinement
// budgets, with OnRefineDegrade set and unset, against the kernel it
// replaced (refCappedMapTree): the same placements and, with the hook set,
// the same degrade events. The root's greedy parts decide the way through
// the capped pass:
//   - uniform: clusters of 64 on nodes of 256 cores, so no pair can gain,
//     and the pass counts the cut pairs instead of weighing and sorting
//     them, or with no hook stops at the slacks;
//   - uneven: the same clusters on nodes of 256, 192, 256 and 128 cores, so
//     no pair can gain, but with a hook the pass must order the pairs to
//     count the ones the budget pays for;
//   - gain: a random matrix whose root parts have slack to swap, where
//     the full pass must run.
//
// Every root part has 128 or more processes and the larger ones reach
// parallelThreshold, so the worker pool maps them and calls the hook
// concurrently.
func TestCappedShortcutMatchesReference(t *testing.T) {
	topo := topology.MustNew(4, 4, 64)
	var keep []int
	for l := 0; l < topo.Leaves(); l++ {
		if node, core := l/256, l%256; node != 1 && node != 3 || node == 1 && core < 192 || node == 3 && core < 128 {
			keep = append(keep, l)
		}
	}
	uneven, err := topo.Restrict(keep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		m                *Matrix
		tree             *topology.Tree
		mayGain, uniform bool
	}{
		{"uniform", clusterMatrix(1024, 64, 1), topo.FullTree(), false, true},
		{"uneven", clusterMatrix(832, 64, 2), uneven, false, false},
		{"gain", randSparse(1024, 6, 3), topo.FullTree(), true, true},
	} {
		// Root work is 393216 and node work at most 24576 on either tree:
		// 1500 caps every level, 3·65536 the root alone.
		for _, budget := range []int{1500, 3 * 65536} {
			restore := SetRefineBudget(budget)
			if mayGain, uniform := rootMayGain(tc.m, tc.tree); mayGain != tc.mayGain || uniform != tc.uniform {
				t.Fatalf("%s: root parts may gain %v, uniform %v; want %v, %v", tc.name, mayGain, uniform, tc.mayGain, tc.uniform)
			}
			var mu sync.Mutex
			var events []RefineDegrade
			prev := OnRefineDegrade
			OnRefineDegrade = func(d RefineDegrade) {
				mu.Lock()
				events = append(events, d)
				mu.Unlock()
			}
			hooked, err := MapTree(tc.m, tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			got := events
			events = nil
			OnRefineDegrade = nil
			unhooked, err := MapTree(tc.m, tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			OnRefineDegrade = func(d RefineDegrade) { events = append(events, d) }
			want := refCappedMapTree(tc.m, tc.tree)
			OnRefineDegrade = prev
			restore()

			if !slices.Equal(hooked, want) || !slices.Equal(unhooked, want) {
				t.Fatalf("%s budget %d: placements differ from the reference (hook set: %v, unset: %v)",
					tc.name, budget, slices.Equal(hooked, want), slices.Equal(unhooked, want))
			}
			byValue := func(x, y RefineDegrade) int {
				return cmp.Or(cmp.Compare(x.Procs, y.Procs), cmp.Compare(x.Parts, y.Parts), cmp.Compare(x.Work, y.Work),
					cmp.Compare(x.PairsRefined, y.PairsRefined), cmp.Compare(x.PairsSkipped, y.PairsSkipped))
			}
			slices.SortFunc(got, byValue)
			slices.SortFunc(events, byValue)
			if len(events) == 0 || !slices.Equal(got, events) {
				t.Fatalf("%s budget %d: degrade events %+v, reference %+v", tc.name, budget, got, events)
			}
		}
	}
}
