package telemetry

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestRecordIsCompactAndPointerFree pins the log's record: 56 bytes and no
// field the GC would have to scan.
func TestRecordIsCompactAndPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 56 {
		t.Fatalf("record is %d bytes, want 56", got)
	}
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Uint64, reflect.Int64, reflect.Int32, reflect.Uint16, reflect.Uint8:
		default:
			t.Errorf("record field %s is a %s", f.Name, f.Type)
		}
	}
}

// oracle is the span store as it was before the log: full Span values kept
// in slices. The tests drive it and the real tracers with one operation
// sequence and compare what Spans returns.
type oracle struct {
	next uint64
	open map[int][]Span
	done map[int][]Span
}

func (o *oracle) top(rank int) uint64 {
	if s := o.open[rank]; len(s) > 0 {
		return s[len(s)-1].ID
	}
	return 0
}

func (o *oracle) add(rank int, s Span) {
	o.next++
	s.ID, s.Parent, s.Rank = o.next, o.top(rank), rank
	o.done[rank] = append(o.done[rank], s)
}

// drive applies n random operations to the tracers and the oracle alike:
// names and classes from a set with the colliding cases (empty, "msg:p2p"
// as a plain name, "p2p" as both a class and a name), endpoints and
// contexts including -1 and the largest int32.
func drive(tel *Telemetry, o *oracle, ranks, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	texts := []string{"", "p2p", "msg:p2p", "msg:", "coll", "recv.wait", "bcast"}
	ints := []int{-1, 0, 7, math.MaxInt32}
	for i := 0; i < n; i++ {
		rank := rng.Intn(ranks)
		r := tel.Rank(rank)
		text := texts[rng.Intn(len(texts))]
		at := rng.Int63n(1 << 40)
		switch op := rng.Intn(6); {
		case op == 0 || (op == 1 && len(o.open[rank]) == 0):
			kind := Kind(rng.Intn(5))
			r.Begin(text, kind, at)
			o.next++
			o.open[rank] = append(o.open[rank], Span{ID: o.next, Parent: o.top(rank), Rank: rank,
				Name: text, Kind: kind, Start: at, Src: -1, Dst: -1, Ctx: -1})
		case op == 1:
			r.End(at + 5)
			s := o.open[rank][len(o.open[rank])-1]
			o.open[rank] = o.open[rank][:len(o.open[rank])-1]
			s.End = at + 5
			o.done[rank] = append(o.done[rank], s)
		case op == 2 || op == 3:
			ctx, src, dst := ints[rng.Intn(4)], ints[rng.Intn(4)], ints[rng.Intn(4)]
			bytes := rng.Int63() - rng.Int63()
			r.Message(text, ctx, src, dst, bytes, at, at+9)
			o.add(rank, Span{Name: "msg:" + text, Kind: KindMessage, Start: at, End: at + 9,
				Src: src, Dst: dst, Bytes: bytes, Class: text, Ctx: ctx})
		case op == 4:
			r.Range(text, KindWait, at, at+3)
			o.add(rank, Span{Name: text, Kind: KindWait, Start: at, End: at + 3, Src: -1, Dst: -1, Ctx: -1})
		default:
			r.Event(text, at)
			o.add(rank, Span{Name: text, Kind: KindEvent, Start: at, End: at, Src: -1, Dst: -1, Ctx: -1})
		}
	}
}

// TestSpansRoundTrip checks that the log rebuilds exactly the spans the
// old store kept, in the same order, per rank and merged: across the
// colliding names, every endpoint edge case, many stage flushes and many
// chunk boundaries (3000 operations over 3 ranks fill several chunks each,
// and the last stage of each is read part full).
func TestSpansRoundTrip(t *testing.T) {
	const ranks = 3
	tel := New()
	o := &oracle{open: map[int][]Span{}, done: map[int][]Span{}}
	drive(tel, o, ranks, 3000, 1)
	var all []Span
	for rank := 0; rank < ranks; rank++ {
		if got, want := tel.Rank(rank).Spans(), o.done[rank]; !slices.Equal(got, want) {
			t.Fatalf("rank %d: %d spans differ from the oracle's %d", rank, len(got), len(want))
		}
		if got := tel.Rank(rank).OpenDepth(); got != len(o.open[rank]) {
			t.Fatalf("rank %d: open depth %d, oracle %d", rank, got, len(o.open[rank]))
		}
		all = append(all, o.done[rank]...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].ID < all[j].ID
	})
	if !slices.Equal(tel.Spans(), all) {
		t.Fatal("merged spans differ from the oracle's")
	}
}

// TestSpansIncludeStage reads a rank after every span it records, across
// two chunk boundaries: each read returns every finished span, the staged
// ones included, in order, and extends the read before it.
func TestSpansIncludeStage(t *testing.T) {
	tel := New()
	o := &oracle{open: map[int][]Span{}, done: map[int][]Span{}}
	r := tel.Rank(0)
	var prev []Span
	for i := 0; i < 2*chunkLen+stageLen+3; i++ {
		drive(tel, o, 1, 1, int64(i))
		got, want := r.Spans(), o.done[0]
		if !slices.Equal(got, want) {
			t.Fatalf("after %d operations (%d staged, %d chunks): %d spans differ from the oracle's %d",
				i+1, r.staged, len(r.chunks), len(got), len(want))
		}
		if len(got) < len(prev) || !slices.Equal(got[:len(prev)], prev) {
			t.Fatalf("after %d operations: a read of %d spans does not extend the previous %d", i+1, len(got), len(prev))
		}
		prev = got
	}
	if len(r.chunks) < 2 {
		t.Fatalf("%d spans filled %d chunks, want the walk to cross a chunk boundary", len(prev), len(r.chunks))
	}
}

// TestNamesKeptApart spells out the interning cases: a message span and a
// Range or Begin with the same text are different spans, and the empty
// class and the empty name both survive.
func TestNamesKeptApart(t *testing.T) {
	r := New().Rank(0)
	r.Range("msg:p2p", KindWait, 0, 1)
	r.Message("p2p", 0, 0, 1, 8, 1, 2)
	r.Range("p2p", KindWait, 2, 3)
	r.Message("", -1, -1, -1, 0, 3, 4)
	r.Range("", KindWait, 4, 5)
	r.Begin("msg:", KindPhase, 5)
	r.End(6)
	want := []struct{ name, class string }{
		{"msg:p2p", ""}, {"msg:p2p", "p2p"}, {"p2p", ""}, {"msg:", ""}, {"", ""}, {"msg:", ""},
	}
	spans := r.Spans()
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(spans), len(want))
	}
	for i, s := range spans {
		if s.Name != want[i].name || s.Class != want[i].class {
			t.Errorf("span %d: (%q, %q), want (%q, %q)", i, s.Name, s.Class, want[i].name, want[i].class)
		}
	}
	if m := spans[3]; m.Kind != KindMessage || m.Src != -1 || m.Dst != -1 || m.Ctx != -1 {
		t.Errorf("message with -1 endpoints came back as %+v", m)
	}
	// The empty texts as a fresh hub's first lookups, in both orders.
	tel := New()
	a, b := tel.Rank(0), tel.Rank(1)
	a.Message("", 0, 0, 1, 8, 0, 1)
	a.Range("", KindWait, 1, 2)
	b.Range("", KindWait, 0, 1)
	b.Message("", 0, 0, 1, 8, 1, 2)
	for _, s := range tel.Spans() {
		if want := map[Kind]string{KindMessage: "msg:", KindWait: ""}[s.Kind]; s.Name != want || s.Class != "" {
			t.Errorf("rank %d %s span named (%q, %q), want (%q, \"\")", s.Rank, s.Kind, s.Name, s.Class, want)
		}
	}
}

// TestSpanRecordingDoesNotAllocate pins every recording call at zero
// allocations while its chunk has room. Each call writes one record on a
// fresh rank whose stage is already full: AllocsPerRun's warm-up call
// flushes it into the first chunk and the measured calls fill the rest of
// the chunk and the stage again, so no refill is averaged away.
func TestSpanRecordingDoesNotAllocate(t *testing.T) {
	for name, f := range map[string]func(*Rank){
		"Message":   func(r *Rank) { r.Message("p2p", 1, 0, 1, 64, 10, 20) },
		"Range":     func(r *Rank) { r.Range("recv.wait", KindWait, 10, 20) },
		"Event":     func(r *Rank) { r.Event("session.suspend", 30) },
		"Begin+End": func(r *Rank) { r.Begin("bcast", KindCollective, 40); r.End(50) },
	} {
		r := New().Rank(0)
		for i := 0; i < stageLen; i++ {
			f(r)
		}
		if len(r.chunks) != 0 {
			t.Fatalf("%s: a full stage started %d chunks, want none", name, len(r.chunks))
		}
		if allocs := testing.AllocsPerRun(chunkLen-1, func() { f(r) }); allocs != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", name, allocs)
		}
		const n = chunkLen + stageLen
		if s := r.Spans(); len(s) != n || cap(s) != n || len(r.chunks) != 1 || r.staged != stageLen {
			t.Fatalf("%s: %d spans (cap %d) in %d chunks and %d staged, want %d in 1 and %d",
				name, len(s), cap(s), len(r.chunks), r.staged, n, stageLen)
		}
		if allocs := testing.AllocsPerRun(10, func() { r.Spans() }); allocs != 1 {
			t.Errorf("%s: Spans allocates %.2f times, want once", name, allocs)
		}
	}
}

// TestSpanFootprint pins what the log costs per span: 56 bytes plus chunk
// rounding retained, where a []Span of 112-byte records plus regrowth
// slack retained about twice that, and one allocation per chunk plus the
// regrowth of the chunk index.
func TestSpanFootprint(t *testing.T) {
	const n = 100000
	tel := New()
	r := tel.Rank(0)
	r.Message("p2p", 0, 0, 1, 1, 0, 1) // resolve the name first
	chunks0 := len(r.chunks)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(1); i < n; i++ {
		r.Message("p2p", 0, 0, 1, i, i, i+1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tel)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	mallocs, chunks := after.Mallocs-before.Mallocs, uint64(len(r.chunks)-chunks0)
	t.Logf("%.1f heap bytes retained per span, %d allocations for %d new chunks", per, mallocs, chunks)
	if per > 64 {
		t.Fatalf("%.1f heap bytes retained per span, want <= 64", per)
	}
	// One allocation per chunk plus the chunk index's regrowth (9 here) and
	// what the runtime allocates during the run's GC cycles (up to 14 seen):
	// an allocation per span, or one every thousand, is far above this.
	if mallocs > chunks+chunks/8 {
		t.Fatalf("%d allocations for %d new chunks, want about one each", mallocs, chunks)
	}
}

// TestConcurrentReadersSeePrefixes runs every reader — Telemetry.Spans,
// Rank.Spans, OpenDepth and a Prometheus scrape — while 8 goroutine ranks
// record (the race tier runs it under -race). Every snapshot of a rank must
// be a prefix of its final log: each Rank.Spans extends the previous one
// and the last equals the final, and each merged snapshot holds exactly the
// first k spans of every rank's log read after it.
func TestConcurrentReadersSeePrefixes(t *testing.T) {
	const ranks, ops = 8, 1500
	tel := New()
	h := tel.Registry().Histogram("mpimon_test_sizes", SizeBuckets)
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		r := tel.Rank(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < ops; j++ {
				switch j % 5 {
				case 0:
					r.Begin("bcast", KindCollective, j)
				case 1:
					r.Message("coll", 0, i, (i+1)%ranks, j, j, j+1)
				case 2:
					r.Range("recv.wait", KindWait, j, j+1)
				case 3:
					r.Event("session.suspend", j)
				case 4:
					r.End(j)
				}
				h.Observe(j)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := make([][]Span, ranks)
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		merged := tel.Spans()
		for i := 0; i < ranks; i++ {
			r := tel.Rank(i)
			if d := r.OpenDepth(); d < 0 || d > 1 {
				t.Fatalf("rank %d: open depth %d", i, d)
			}
			now := r.Spans()
			if len(now) < len(prev[i]) || !slices.Equal(now[:len(prev[i])], prev[i]) {
				t.Fatalf("rank %d: a snapshot of %d spans does not extend the previous %d", i, len(now), len(prev[i]))
			}
			prev[i] = now
		}
		counts := make([]int, ranks)
		for _, s := range merged {
			counts[s.Rank]++
		}
		first := map[uint64]Span{}
		for i, k := range counts {
			if k > len(prev[i]) {
				t.Fatalf("rank %d: merged snapshot holds %d spans, a later read %d", i, k, len(prev[i]))
			}
			for _, s := range prev[i][:k] {
				first[s.ID] = s
			}
		}
		for _, s := range merged {
			if first[s.ID] != s {
				t.Fatalf("rank %d: merged span %d is not among the first %d of its log", s.Rank, s.ID, counts[s.Rank])
			}
		}
		if err := WritePrometheus(io.Discard, tel.Registry()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ranks; i++ {
		if final := tel.Rank(i).Spans(); len(final) != ops/5*4 || !slices.Equal(final, prev[i]) {
			t.Fatalf("rank %d: final log of %d spans, want %d equal to the last snapshot", i, len(final), ops/5*4)
		}
	}
}

// TestHistogramScrapeConsistent scrapes while 8 goroutines observe: in
// every exposition, a histogram's _count must equal its +Inf bucket.
func TestHistogramScrapeConsistent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("mpimon_test_latency_ns", TimeBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < 20000; j++ {
				h.Observe(j * int64(g+1))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var buf bytes.Buffer
	scrapes := 0
	for reading := true; reading; scrapes++ {
		select {
		case <-done:
			reading = false
		default:
		}
		buf.Reset()
		if err := WritePrometheus(&buf, reg); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, `mpimon_test_latency_ns_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "mpimon_test_latency_ns_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("scrape %d: +Inf bucket %q, _count %q", scrapes, inf, count)
		}
	}
	if h.Count() != 8*20000 {
		t.Fatalf("Count() = %d, want %d", h.Count(), 8*20000)
	}
	t.Logf("%d consistent scrapes", scrapes)
}

// BenchmarkSpanMessage records message spans round-robin over 256 ranks,
// the epoch-export shape, so each store lands in a different rank's chunk
// as it does in a world. The hub is replaced every 2^20 spans to bound
// memory.
func BenchmarkSpanMessage(b *testing.B) {
	benchSpans(b, func(r *Rank, i int64) { r.Message("p2p", 0, 1, 2, 4096, i, i+100) })
}

// BenchmarkSpanRange is BenchmarkSpanMessage for receive-wait spans.
func BenchmarkSpanRange(b *testing.B) {
	benchSpans(b, func(r *Rank, i int64) { r.Range("recv.wait", KindWait, i, i+100) })
}

func benchSpans(b *testing.B, rec func(*Rank, int64)) {
	const np = 256
	var ranks []*Rank
	fresh := func() {
		tel := New()
		ranks = ranks[:0]
		for i := 0; i < np; i++ {
			ranks = append(ranks, tel.Rank(i))
		}
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 && i > 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		rec(ranks[i%np], int64(i))
	}
}
