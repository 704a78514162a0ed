package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// newTestQueue builds a free-standing queue the way each engine sees it:
// under the goroutine engine every operation locks; under the event engine
// (a scheduler is installed, its one rank running) put and take are
// lock-free.
func newTestQueue(event bool) (*msgQueue, *Proc) {
	w := &World{size: 1}
	if event {
		w.ev = &evScheduler{w: w, ranks: make([]evRankState, 1)}
	}
	p := &Proc{world: w}
	p.queue.init(p, &w.aborted)
	return &p.queue, p
}

// queueModel is the reference: one list in arrival order, a receive takes
// the first match.
type queueModel []*message

func (l queueModel) find(ctx, src, tag int) int {
	for i, m := range l {
		if m.matches(ctx, src, tag) {
			return i
		}
	}
	return -1
}

// TestQueueAgainstModel drives the bucketed queue and the single-list model
// with one seeded operation stream — puts, specific-source and wildcard
// takes and peeks, tag-selective takes that remove from the middle of a
// bucket, drain phases whose buckets later puts refill, then a wide fan-in
// that grows and compacts the bucket index — and requires the same message
// from both at every step.
func TestQueueAgainstModel(t *testing.T) {
	const ctxs, srcs, tags = 3, 6, 3
	for _, event := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("event=%v/seed%d", event, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				q, p := newTestQueue(event)
				var model queueModel
				wild := func(v, n int) int { // a value, or the wildcard one time in three
					if rng.Intn(3) == 0 {
						return -1
					}
					return v % n
				}
				for step := 0; step < 20000; step++ {
					// Alternate filling and draining phases so buckets
					// drain completely, get pruned and come back.
					putBias := 6
					if step/500%2 == 1 {
						putBias = 2
					}
					if rng.Intn(10) < putBias {
						m := &message{ctx: rng.Intn(ctxs), src: rng.Intn(srcs), tag: rng.Intn(tags)}
						q.put(m)
						model = append(model, m)
						continue
					}
					ctx, src, tag := rng.Intn(ctxs), wild(rng.Int(), srcs), wild(rng.Int(), tags)
					i := model.find(ctx, src, tag)
					c := &Comm{p: p, ctx: ctx}
					var got *message
					switch {
					case i < 0:
						if m, ok := q.tryTake(ctx, src, tag); ok {
							t.Fatalf("step %d: take(%d,%d,%d) returned %+v, model has no match", step, ctx, src, tag, m)
						}
						continue
					case rng.Intn(4) == 0:
						got, _ = q.peek(c, src, tag)
						if got != model[i] {
							t.Fatalf("step %d: peek(%d,%d,%d) = %+v, model %+v", step, ctx, src, tag, got, model[i])
						}
						continue
					case rng.Intn(2) == 0:
						got, _ = q.take(c, src, tag)
					default:
						got, _ = q.tryTake(ctx, src, tag)
					}
					if got != model[i] {
						t.Fatalf("step %d: take(%d,%d,%d) = %+v, model %+v", step, ctx, src, tag, got, model[i])
					}
					model = append(model[:i], model[i+1:]...)
					if q.pending() != len(model) {
						t.Fatalf("step %d: %d pending, model holds %d", step, q.pending(), len(model))
					}
				}
				wideFanIn(t, rng, q, p, model)
			})
		}
	}
}

// wideFanIn continues a TestQueueAgainstModel stream with a fan-in from
// thousands of sources, so the bucket index grows and drained buckets are
// compacted mid-stream: at least 2048 sources fill the index to exactly
// half, specific-source takes drain three quarters of them, 512 new sources
// then find the index full (compaction at bucket creation, not growth), and
// wildcard takes drain the rest (compaction at the start of a scan), each
// checked against the model.
func wideFanIn(t *testing.T, rng *rand.Rand, q *msgQueue, p *Proc, model queueModel) {
	t.Helper()
	const base, wide = 100, 2048
	next := base
	putNext := func() { // one or two messages from a new source
		for range 1 + rng.Intn(2) {
			m := &message{ctx: next % 2, src: next, tag: rng.Intn(3)}
			q.put(m)
			model = append(model, m)
		}
		next++
	}
	take := func(what string, ctx, src, tag int) {
		i := model.find(ctx, src, tag)
		got, _ := q.take(&Comm{p: p, ctx: ctx}, src, tag)
		if got != model[i] {
			t.Fatalf("%s take(%d,%d,%d) = %+v, model %+v", what, ctx, src, tag, got, model[i])
		}
		model = append(model[:i], model[i+1:]...)
	}
	for next < base+wide || 2*len(q.slab) < len(q.index) {
		putNext()
	}
	full := len(q.index)
	for _, s := range rng.Perm(next - base)[:(next-base)*3/4] {
		for model.find((base+s)%2, base+s, AnyTag) >= 0 {
			take("specific", (base+s)%2, base+s, AnyTag)
		}
	}
	for range wide / 4 {
		putNext()
	}
	if len(q.index) != full {
		t.Fatalf("index grew from %d to %d slots: the drained buckets were not compacted at creation", full, len(q.index))
	}
	for len(model) > 0 {
		m := model[rng.Intn(len(model))]
		tag := m.tag
		if rng.Intn(2) == 0 {
			tag = AnyTag
		}
		take("wildcard", m.ctx, AnySource, tag)
		if live := len(q.slab) - q.drained; len(q.slab) > 2*live+compactFloor {
			t.Fatalf("%d buckets in the slab for %d with messages queued", len(q.slab), live)
		}
	}
	if q.pending() != 0 {
		t.Fatalf("%d messages pending after the model drained", q.pending())
	}
}

// TestQueueSteadyStateAllocs: once its buckets exist a queue allocates
// nothing, whatever its depth and however its receives drain it.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, event := range []bool{false, true} {
		q, p := newTestQueue(event)
		c := &Comm{p: p}

		// Put/take pairs through a bucket that stays three deep: popping by
		// re-slicing used to walk the bucket off its backing array every
		// few messages (16 pairs a run, AllocsPerRun rounds down).
		m := &message{src: 1}
		for i := 0; i < 3; i++ {
			q.put(&message{src: 1})
		}
		if n := testing.AllocsPerRun(100, func() {
			for i := 0; i < 16; i++ {
				q.put(m)
				m, _ = q.take(c, 1, AnyTag)
			}
		}); n != 0 {
			t.Errorf("event=%v: %v allocations per 16 put/take pairs at depth 3, want 0", event, n)
		}

		// The halo cycle: one message from each of four neighbours, then
		// four receives that drain every bucket, and the next iteration's
		// puts refill them — by wildcard and by specific source.
		var halo [4]*message
		for i := range halo {
			halo[i] = &message{src: 10 + i}
		}
		for _, wildcard := range []bool{true, false} {
			q, p = newTestQueue(event)
			c = &Comm{p: p}
			if n := testing.AllocsPerRun(1000, func() {
				for _, m := range halo {
					q.put(m)
				}
				for _, m := range halo {
					src := m.src
					if wildcard {
						src = AnySource
					}
					if _, err := q.take(c, src, AnyTag); err != nil {
						t.Fatal(err)
					}
				}
			}); n != 0 {
				t.Errorf("event=%v wildcard=%v: %v allocations per halo drain/refill cycle, want 0", event, wildcard, n)
			}
		}
	}
}
