// Package event provides the virtual-time priority queue at the core of
// the discrete-event execution engine: a binary min-heap of scheduled rank
// wake-ups ordered by (time, rank, seq).
//
// The ordering is total and depends only on virtual quantities, which is
// what makes an event-engine run replayable: two items never compare equal
// (seq is a unique push counter), so heap order — and therefore dispatch
// order — is a pure function of the pushed events, independent of host
// scheduling.
//
// Deletion is lazy. The queue has no remove operation; instead every item
// carries the generation (ID) of the wait it belongs to, and the consumer
// skips popped items whose generation no longer matches the target rank's
// current wait. A rank that was woken by an earlier event simply leaves its
// other pending wake-ups to die on the heap, which keeps Push/Pop at
// O(log n) with no bookkeeping on the wake path.
package event

// Kind says what a scheduled item means to the dispatcher.
type Kind uint8

const (
	// Wake resumes a rank because something it may be waiting for changed
	// (a message arrival, an agreement seal, a failure, the initial start).
	Wake Kind = iota
	// Timeout resumes a rank because the virtual deadline of its wait
	// passed without the wait being satisfied.
	Timeout
)

// Item is one scheduled wake-up.
type Item struct {
	// Time is the virtual time (ns) at which the rank becomes runnable.
	Time int64
	// Rank is the rank to resume.
	Rank int32
	// Kind distinguishes ordinary wake-ups from deadline expiries.
	Kind Kind
	// ID is the generation of the wait this item targets; the dispatcher
	// discards the item if the rank has since moved on (lazy deletion).
	ID uint64
	// Seq is the queue-assigned push counter breaking (Time, Rank) ties,
	// so dispatch order is total and replays exactly.
	Seq uint64
}

// less is the heap order: earliest time first, then lowest rank, then
// earliest push.
func less(a, b Item) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Seq < b.Seq
}

// Queue is the event heap. The zero value is ready to use. It is not
// goroutine-safe: the discrete-event scheduler guarantees a single accessor
// at a time (the one running rank or the dispatcher, alternating through
// coroutine switches that establish the necessary happens-before).
type Queue struct {
	items []Item
	seq   uint64
}

// Len returns the number of pending items, stale ones included.
func (q *Queue) Len() int { return len(q.items) }

// Push schedules a wake-up of rank at virtual time t, stamped with the
// wait generation id.
func (q *Queue) Push(t int64, rank int32, id uint64, kind Kind) {
	q.items = append(q.items, Item{Time: t, Rank: rank, Kind: kind, ID: id, Seq: q.seq})
	q.seq++
	q.siftUp(len(q.items) - 1)
}

// Pop removes and returns the earliest item. It panics on an empty queue;
// callers check Len first.
func (q *Queue) Pop() Item {
	n := len(q.items)
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.siftDown(0)
	}
	return top
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(q.items[l], q.items[smallest]) {
			smallest = l
		}
		if r < n && less(q.items[r], q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
