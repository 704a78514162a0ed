package pml

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndRead(t *testing.T) {
	m := NewMonitor(4, Distinct)
	m.Record(P2P, 1, 100, 0)
	m.Record(P2P, 1, 50, 0)
	m.Record(Coll, 2, 8, 0)
	m.Record(Osc, 3, 0, 0) // zero-length still counts

	counts := make([]uint64, 4)
	bytes := make([]uint64, 4)
	m.Counts(P2P, counts)
	m.Bytes(P2P, bytes)
	if counts[1] != 2 || bytes[1] != 150 {
		t.Fatalf("p2p to 1: %d msgs / %d bytes, want 2/150", counts[1], bytes[1])
	}
	m.Counts(Coll, counts)
	if counts[2] != 1 {
		t.Fatalf("coll to 2: %d msgs, want 1", counts[2])
	}
	m.Counts(Osc, counts)
	m.Bytes(Osc, bytes)
	if counts[3] != 1 || bytes[3] != 0 {
		t.Fatalf("osc to 3: %d msgs / %d bytes, want 1/0", counts[3], bytes[3])
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	m := NewMonitor(2, Disabled)
	m.Record(P2P, 0, 10, 0)
	if m.TotalBytes(P2P) != 0 {
		t.Fatal("disabled monitor recorded")
	}
	m.SetLevel(Distinct)
	m.Record(P2P, 0, 10, 0)
	if m.TotalBytes(P2P) != 10 {
		t.Fatal("re-enabled monitor did not record")
	}
}

func TestSuppressNests(t *testing.T) {
	m := NewMonitor(2, Distinct)
	m.Suppress()
	m.Suppress()
	m.Record(P2P, 0, 1, 0)
	m.Unsuppress()
	m.Record(P2P, 0, 1, 0)
	m.Unsuppress()
	m.Record(P2P, 0, 1, 0)
	if got := m.TotalBytes(P2P); got != 1 {
		t.Fatalf("recorded %d bytes, want 1 (only after full unsuppress)", got)
	}
}

func TestUnsuppressUnderflowPanics(t *testing.T) {
	m := NewMonitor(1, Distinct)
	defer func() {
		if recover() == nil {
			t.Fatal("Unsuppress without Suppress should panic")
		}
	}()
	m.Unsuppress()
}

func TestRecorderHook(t *testing.T) {
	m := NewMonitor(2, Distinct)
	var got []int
	id := m.AddRecorder(func(class Class, dst, bytes int, when int64) {
		got = append(got, bytes)
	})
	m.Record(P2P, 1, 5, 0)
	m.Record(P2P, 1, 7, 0)
	m.RemoveRecorder(id)
	m.Record(P2P, 1, 9, 0)
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("recorder saw %v, want [5 7]", got)
	}
}

func TestRecorderFanOut(t *testing.T) {
	m := NewMonitor(2, Distinct)
	var a, b []int
	idA := m.AddRecorder(func(class Class, dst, bytes int, when int64) {
		a = append(a, bytes)
	})
	m.AddRecorder(func(class Class, dst, bytes int, when int64) {
		b = append(b, bytes)
	})
	m.Record(Coll, 0, 3, 0)
	m.RemoveRecorder(idA)
	m.RemoveRecorder(idA) // double removal is harmless
	m.Record(Coll, 0, 4, 0)
	if len(a) != 1 || a[0] != 3 {
		t.Fatalf("recorder a saw %v, want [3]", a)
	}
	if len(b) != 2 || b[0] != 3 || b[1] != 4 {
		t.Fatalf("recorder b saw %v, want [3 4]", b)
	}
}

func TestRecorderSeesFoldedClassAndSuppression(t *testing.T) {
	m := NewMonitor(2, Aggregate)
	var classes []Class
	m.AddRecorder(func(class Class, dst, bytes int, when int64) {
		classes = append(classes, class)
	})
	m.Record(Coll, 1, 1, 0) // folded to P2P at level Aggregate
	m.Suppress()
	m.Record(P2P, 1, 1, 0) // suppressed: recorders must not see it
	m.Unsuppress()
	m.SetLevel(Disabled)
	m.Record(P2P, 1, 1, 0) // disabled: same
	if len(classes) != 1 || classes[0] != P2P {
		t.Fatalf("recorder saw classes %v, want [p2p]", classes)
	}
}

// TestReset pins the epoch semantics: Reset forgets counters and touched
// peers of every class, and recording afterwards starts from nothing.
func TestReset(t *testing.T) {
	m := NewMonitor(8, Distinct)
	m.Record(P2P, 1, 10, 0)
	m.Record(Coll, 2, 10, 0)
	m.Reset()
	out := make([]uint64, 8)
	for _, cl := range []Class{P2P, Coll, Osc} {
		if got := m.Touched(cl); len(got) != 0 {
			t.Fatalf("Touched(%v) after Reset = %v", cl, got)
		}
		if got := m.TotalBytes(cl); got != 0 {
			t.Fatalf("TotalBytes(%v) after Reset = %d, want 0", cl, got)
		}
		m.Counts(cl, out)
		for i, v := range out {
			if v != 0 {
				t.Fatalf("Counts(%v)[%d] after Reset = %d, want 0", cl, i, v)
			}
		}
	}
	m.Record(P2P, 5, 1, 0)
	if got := m.Touched(P2P); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Touched after Reset+Record = %v, want [5]", got)
	}
	if got := m.TotalBytes(P2P); got != 1 {
		t.Fatalf("TotalBytes after Reset+Record = %d, want 1", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	m := NewMonitor(2, Distinct)
	var wg sync.WaitGroup
	const g, per = 8, 1000
	wg.Add(g)
	for i := 0; i < g; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m.Record(P2P, 1, 1, 0)
			}
		}()
	}
	wg.Wait()
	counts := make([]uint64, 2)
	m.Counts(P2P, counts)
	if counts[1] != g*per {
		t.Fatalf("concurrent records lost: %d, want %d", counts[1], g*per)
	}
}

func TestCopyRowLengthPanics(t *testing.T) {
	m := NewMonitor(3, Distinct)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong output length should panic")
		}
	}()
	m.Counts(P2P, make([]uint64, 2))
}

func TestClassString(t *testing.T) {
	if P2P.String() != "p2p" || Coll.String() != "coll" || Osc.String() != "osc" {
		t.Fatal("class names wrong")
	}
}

func TestAggregateLevelFoldsClasses(t *testing.T) {
	m := NewMonitor(2, Aggregate)
	m.Record(Coll, 1, 10, 0)
	m.Record(Osc, 1, 5, 0)
	m.Record(P2P, 1, 1, 0)
	if got := m.TotalBytes(P2P); got != 16 {
		t.Fatalf("aggregate level: P2P class holds %d bytes, want 16 (all classes folded)", got)
	}
	if m.TotalBytes(Coll) != 0 || m.TotalBytes(Osc) != 0 {
		t.Fatal("aggregate level must not populate per-class counters")
	}
	// Back to Distinct: classes separate again.
	m.SetLevel(Distinct)
	m.Record(Coll, 1, 7, 0)
	if m.TotalBytes(Coll) != 7 {
		t.Fatal("distinct level lost the class")
	}
}

// TestTouchedTracksFirstTouch checks the sparse read surface against the
// full-row one: Touched lists exactly the peers with recorded traffic, in
// first-touch order with duplicates collapsed, and CountsAt/BytesAt over
// that list agree with Counts/Bytes.
func TestTouchedTracksFirstTouch(t *testing.T) {
	n := 64
	m := NewMonitor(n, Distinct)
	for i, p := range []int{3, 17, 3, 60, 17, 5} {
		m.Record(P2P, p, 100+i, 0)
	}
	m.Record(Coll, 9, 7, 0)

	got := m.Touched(P2P)
	if want := []int{3, 17, 60, 5}; !slices.Equal(got, want) {
		t.Fatalf("Touched(P2P) = %v, want %v", got, want)
	}
	if c := m.Touched(Coll); len(c) != 1 || c[0] != 9 {
		t.Fatalf("Touched(Coll) = %v, want [9]", c)
	}
	if o := m.Touched(Osc); len(o) != 0 {
		t.Fatalf("Touched(Osc) = %v, want empty", o)
	}

	row := make([]uint64, n)
	at := make([]uint64, len(got))
	m.Counts(P2P, row)
	m.CountsAt(P2P, got, at)
	for i, p := range got {
		if at[i] != row[p] {
			t.Fatalf("CountsAt peer %d = %d, Counts says %d", p, at[i], row[p])
		}
	}
	m.Bytes(P2P, row)
	m.BytesAt(P2P, got, at)
	for i, p := range got {
		if at[i] != row[p] {
			t.Fatalf("BytesAt peer %d = %d, Bytes says %d", p, at[i], row[p])
		}
	}
}

// model is the reference the op-stream suite compares a Monitor against:
// a plain map from (class, dst) to (count, bytes), the first-touch order
// per class, and the level and suppression depth that gate recording.
type model struct {
	n        int
	cells    map[[2]int][2]uint64
	order    [NumClasses][]int
	level    Level
	suppress int
	seen     int // messages a recorder must have observed
}

func (r *model) record(class Class, dst, size int) {
	if r.level == Disabled || r.suppress > 0 {
		return
	}
	if r.level == Aggregate {
		class = P2P
	}
	k := [2]int{int(class), dst}
	c, ok := r.cells[k]
	if !ok {
		r.order[class] = append(r.order[class], dst)
	}
	r.cells[k] = [2]uint64{c[0] + 1, c[1] + uint64(size)}
	r.seen++
}

func (r *model) reset() {
	r.cells = map[[2]int][2]uint64{}
	r.order = [NumClasses][]int{}
}

// checkSparse compares the O(touched) readers of one class, probing the
// given extra peers (touched or not) on top of the touched list.
func (r *model) checkSparse(t *testing.T, m *Monitor, class Class, extra []int) {
	t.Helper()
	got := m.Touched(class)
	if !slices.Equal(got, r.order[class]) {
		t.Fatalf("Touched(%v) = %v, want %v (first-touch order)", class, got, r.order[class])
	}
	peers := append(got, extra...)
	cnt := make([]uint64, len(peers))
	byt := make([]uint64, len(peers))
	m.CountsAt(class, peers, cnt)
	m.BytesAt(class, peers, byt)
	var total uint64
	for i, p := range peers {
		want := r.cells[[2]int{int(class), p}]
		if cnt[i] != want[0] || byt[i] != want[1] {
			t.Fatalf("%v peer %d: %d msgs / %d B, want %d / %d", class, p, cnt[i], byt[i], want[0], want[1])
		}
		if i < len(got) {
			total += want[1]
		}
	}
	if tb := m.TotalBytes(class); tb != total {
		t.Fatalf("TotalBytes(%v) = %d, want %d", class, tb, total)
	}
}

// checkRows compares the full-row readers of every class.
func (r *model) checkRows(t *testing.T, m *Monitor) {
	t.Helper()
	cnt := make([]uint64, r.n)
	byt := make([]uint64, r.n)
	for class := Class(0); class < NumClasses; class++ {
		m.Counts(class, cnt)
		m.Bytes(class, byt)
		for dst := range cnt {
			want := r.cells[[2]int{int(class), dst}]
			if cnt[dst] != want[0] || byt[dst] != want[1] {
				t.Fatalf("%v row[%d]: %d msgs / %d B, want %d / %d", class, dst, cnt[dst], byt[dst], want[0], want[1])
			}
		}
	}
}

// TestAgainstModel drives a seeded stream of Record / Reset / SetLevel /
// Suppress operations with reads in mid-stream against the map model, at
// world sizes on both sides of every size the old backends switched at
// and at neighbourhood degrees from nothing, through the stencil degrees
// and one past the old 8-slot cache, to every peer of the world.
func TestAgainstModel(t *testing.T) {
	for _, n := range []int{1, 4, 2304, 4096, 4097, 65536} {
		degrees := []int{0, 4, 8, 9}
		if n <= 4097 {
			degrees = append(degrees, n-1)
		}
		for _, degree := range degrees {
			n, degree := n, degree
			t.Run(fmt.Sprintf("n%d/deg%d", n, degree), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*31 + int64(degree)))
				if degree > n {
					degree = n
				}
				peers := rng.Perm(n)[:degree]
				m := NewMonitor(n, Distinct)
				ref := &model{n: n, level: Distinct}
				ref.reset()
				seen := 0
				m.AddRecorder(func(Class, int, int, int64) { seen++ })

				ops := 3000 + 4*degree
				for i := 0; i < ops; i++ {
					switch x := rng.Intn(1000); {
					case x < 900 && degree > 0:
						class := Class(rng.Intn(int(NumClasses)))
						dst := peers[rng.Intn(degree)]
						size := rng.Intn(1 << 12)
						m.Record(class, dst, size, int64(i))
						ref.record(class, dst, size)
					case x < 950:
						ref.checkSparse(t, m, Class(rng.Intn(int(NumClasses))),
							[]int{rng.Intn(n), rng.Intn(n)})
					case x < 955:
						m.Reset()
						ref.reset()
					case x < 965:
						ref.level = []Level{Distinct, Distinct, Aggregate, Disabled}[rng.Intn(4)]
						m.SetLevel(ref.level)
					case x < 975:
						if ref.suppress > 0 && rng.Intn(2) == 0 {
							m.Unsuppress()
							ref.suppress--
						} else if ref.suppress < 2 {
							m.Suppress()
							ref.suppress++
						}
					case x < 978:
						ref.checkRows(t, m)
					}
				}
				for class := Class(0); class < NumClasses; class++ {
					ref.checkSparse(t, m, class, nil)
				}
				ref.checkRows(t, m)
				if seen != ref.seen {
					t.Fatalf("recorder saw %d messages, model accepted %d", seen, ref.seen)
				}
			})
		}
	}
}

// TestConcurrentFirstTouch races many goroutines over a small peer set so
// first touches are contended, then checks the list holds each touched
// peer exactly once.
func TestConcurrentFirstTouch(t *testing.T) {
	n := 32
	m := NewMonitor(n, Distinct)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Record(P2P, (g+i)%n, 8, 0)
			}
		}(g)
	}
	wg.Wait()
	got := m.Touched(P2P)
	sort.Ints(got)
	if len(got) != n {
		t.Fatalf("touched %d peers, want %d: %v", len(got), n, got)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("peer list has gaps or duplicates: %v", got)
		}
	}
	row := make([]uint64, n)
	m.Counts(P2P, row)
	var total uint64
	for _, c := range row {
		total += c
	}
	if total != 8*200 {
		t.Fatalf("total count %d, want %d", total, 8*200)
	}
}

// TestConcurrentReaders races every reader against the recording writer;
// each read must be a consistent snapshot (bytes are 8 per message) and
// the final total exact. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	m := NewMonitor(32, Distinct)
	const msgs = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cnt := make([]uint64, 32)
		at := make([]uint64, 2)
		for {
			select {
			case <-stop:
				return
			default:
				m.Counts(P2P, cnt)
				m.CountsAt(P2P, []int{0, 31}, at)
				var c uint64
				for _, v := range cnt {
					c += v
				}
				if tb := m.TotalBytes(P2P); tb < 8*c {
					t.Errorf("TotalBytes %d behind an earlier Counts total of %d messages", tb, c)
					return
				}
				if len(m.Touched(P2P)) > 5 {
					t.Errorf("touched more peers than the writer sends to")
					return
				}
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		m.Record(P2P, i%5, 8, int64(i))
	}
	close(stop)
	wg.Wait()
	if got := m.TotalBytes(P2P); got != msgs*8 {
		t.Fatalf("TotalBytes = %d, want %d", got, msgs*8)
	}
}

// TestPeerRangePanics pins that a peer outside the world is refused with
// the same message by the writer and by the per-peer readers, and that a
// short output slice is refused too.
func TestPeerRangePanics(t *testing.T) {
	m := NewMonitor(4, Distinct)
	for name, tc := range map[string]struct {
		fn   func()
		want string
	}{
		"short-out":       {func() { m.CountsAt(P2P, []int{1, 2}, make([]uint64, 1)) }, "length 1 for 2 peers"},
		"at-oob":          {func() { m.CountsAt(P2P, []int{4}, make([]uint64, 1)) }, "pml: peer 4 outside world of 4"},
		"at-negative":     {func() { m.BytesAt(P2P, []int{-1}, make([]uint64, 1)) }, "pml: peer -1 outside world of 4"},
		"record-oob":      {func() { m.Record(Osc, 4, 8, 0) }, "pml: peer 4 outside world of 4"},
		"record-past":     {func() { m.Record(P2P, 4+2, 8, 0) }, "pml: peer 6 outside world of 4"},
		"record-negative": {func() { m.Record(Coll, -1, 8, 0) }, "pml: peer -1 outside world of 4"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Fatalf("%s: panic %q, want one containing %q", name, got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
	// The refused records left nothing behind, in any class.
	for class := Class(0); class < NumClasses; class++ {
		if got := m.Touched(class); len(got) != 0 {
			t.Fatalf("Touched(%v) after refused records = %v", class, got)
		}
	}
	// A reader that panicked must not have kept the monitor's lock.
	m.Record(P2P, 3, 8, 0)
	if got := m.TotalBytes(P2P); got != 8 {
		t.Fatalf("TotalBytes after panics = %d, want 8", got)
	}
}

var sinkMonitor *Monitor

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestFootprint pins that monitor memory follows touched peers, not the
// world size: an untouched monitor is one object whatever n is, and a
// four-neighbour rank of an np=2304 world (the benchmark's halo-p2p
// shape, 144 544 B per rank on the flat arrays) stays under 1 KiB.
func TestFootprint(t *testing.T) {
	if got := testing.AllocsPerRun(20, func() { sinkMonitor = NewMonitor(1<<16, Distinct) }); got != 1 {
		t.Fatalf("NewMonitor(65536) allocates %v objects, want 1", got)
	}
	got := allocBytes(func() {
		m := NewMonitor(2304, Distinct)
		for _, p := range []int{47, 49, 0, 96} {
			m.Record(P2P, p, 4096, 0)
		}
		sinkMonitor = m
	})
	if got >= 1024 {
		t.Fatalf("NewMonitor(2304) + 4 peers allocates %d B, want < 1024", got)
	}
}

// TestEpochCycleAllocs pins the steady state of an epoch loop over a
// fixed neighbourhood: once the tables have grown to it, Record → Reset →
// Record allocates nothing, at the epoch-export benchmark's world size
// and at one where the map backend used to drop its maps on every Reset.
func TestEpochCycleAllocs(t *testing.T) {
	for _, n := range []int{256, 1 << 16} {
		m := NewMonitor(n, Distinct)
		peers := []int{1, 2, 15, 17, 16, 240, 255, 128}
		epoch := func() {
			for i, p := range peers {
				m.Record(P2P, p, 64, int64(i))
				m.Record(Coll, p, 8, int64(i))
			}
		}
		epoch()
		if got := testing.AllocsPerRun(100, func() { epoch(); m.Reset(); epoch() }); got != 0 {
			t.Fatalf("n=%d: steady-state epoch cycle allocates %v objects per run, want 0", n, got)
		}
		if got := len(m.Touched(P2P)); got != len(peers) {
			t.Fatalf("n=%d: touched %d peers after the cycles, want %d", n, got, len(peers))
		}
	}
}
