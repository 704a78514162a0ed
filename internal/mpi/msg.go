package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// message is one in-flight point-to-point message. src is the sender's rank
// in the communicator identified by ctx; arrival is the virtual time at
// which the last byte reaches the receiver. data may be nil for messages
// with a logical size only (communication-skeleton workloads).
type message struct {
	src     int
	tag     int
	ctx     int
	size    int
	data    []byte
	arrival int64
	sentAt  int64 // sender's virtual clock at injection (telemetry latency)
	// seq is the message's global arrival number in its receive queue,
	// stamped by put: wildcard receives use it to pick the earliest match
	// across the per-sender buckets.
	seq uint64
	// pclass is the sync.Pool class the message recycles through after the
	// consuming receive (see bufpool.go); poolNone disables recycling.
	pclass int8
	// next links the message into its receive-queue bucket while queued.
	next *message
}

func (m *message) matches(ctx, src, tag int) bool {
	return m.ctx == ctx &&
		(src == AnySource || m.src == src) &&
		(tag == AnyTag || m.tag == tag)
}

// msgQueue is a process's unordered-by-peer, FIFO-per-peer incoming queue.
// Senders append to it and the owning process blocks in take until a match
// appears. An unbounded queue means Send never blocks on the receiver, which
// keeps the virtual-time simulation deadlock-free for programs that would
// deadlock only through rendezvous flow control.
//
// Messages are indexed by (ctx, src) bucket so a specific-source receive
// matches without scanning unrelated traffic: an np-wide fan-in drained in
// source order (the streamed gathers) would otherwise rescan the whole
// backlog per receive — O(np²) match work at np = 65536. Wildcard receives
// pick the bucket head with the lowest arrival seq, which is exactly the
// first match the historical single-list scan would have returned.
//
// Synchronization and blocking depend on the world's engine. Under the
// goroutine engine senders run on their own goroutines: every operation
// holds mu and a waiter parks on the condition variable. Under the event
// engine the one running rank is the only accessor, ordered against the
// previous and the next runner by the coroutine switches between them
// (engine.go), so put, takeEvent and peekEvent take no lock and broadcast
// nothing; a waiter parks with the scheduler and a sender's put schedules
// the wake-up on the virtual-time heap.
type msgQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// slab holds the buckets by value, so creating one allocates nothing
	// once the slab has grown. A drained bucket stays, ready for its pair's
	// next message, until compact drops the drained ones all at once.
	slab    []bucket
	drained int // buckets of slab with nothing queued
	// index finds a pair's bucket with one probe per put or specific-source
	// take: an open-addressed table whose slot holds a slab position plus
	// one (zero is empty), probed linearly from a Fibonacci hash of
	// pairKey(ctx, src); shift is 64 - log2(len(index)). len(index) is a
	// power of two at least twice len(slab), so the table is never more
	// than half full. Nothing is deleted from it one entry at a time:
	// compact and newBucket rebuild it whole.
	index []int32
	shift uint
	seq   uint64 // next arrival number
	count int    // total queued
	// owner is the process this queue belongs to (the only taker).
	owner *Proc
	// aborted points at the world's abort flag: when another rank fails,
	// blocked receivers must wake up and bail out instead of hanging.
	aborted *atomic.Bool
}

// bucket is the FIFO of one (ctx, src) pair, linked through message.next
// in arrival order: a push or a pop moves two pointers and allocates
// nothing, however deep the bucket runs.
type bucket struct {
	key        uint64
	head, tail *message
}

// pairKey indexes a bucket. ctx and src are small non-negative ints, so
// the packing is injective.
func pairKey(ctx, src int) uint64 {
	return uint64(uint32(ctx))<<32 | uint64(uint32(src))
}

func (q *msgQueue) init(owner *Proc, aborted *atomic.Bool) {
	q.cond = sync.NewCond(&q.mu)
	q.owner = owner
	q.aborted = aborted
}

func (q *msgQueue) put(m *message) {
	ev := q.owner.world.ev
	if ev == nil {
		q.mu.Lock()
		q.enqueue(m)
		q.mu.Unlock()
		q.cond.Broadcast()
		return
	}
	// Event engine: the caller is the current runner; make the parked
	// owner runnable at the message's arrival time.
	q.enqueue(m)
	ev.noteArrival(q.owner, m)
}

// compactFloor is the slab length up to which a wildcard scan walks drained
// buckets rather than compacting them away: a halo rank's few neighbour
// buckets drain every iteration and are refilled by the next.
const compactFloor = 8

// enqueue appends m to its pair's bucket, creating the bucket on the
// pair's first message.
func (q *msgQueue) enqueue(m *message) {
	m.seq = q.seq
	q.seq++
	q.count++
	k := pairKey(m.ctx, m.src)
	b := q.bucketOf(k)
	if b == nil {
		b = q.newBucket(k)
	}
	if b.head == nil {
		q.drained--
		b.head, b.tail = m, m
	} else {
		b.tail.next, b.tail = m, m
	}
}

// slot returns the index slot that holds key's bucket, or the empty slot
// where it belongs. The multiplicative hash spreads the strided sources of
// stencil neighbourhoods, which share low bits.
func (q *msgQueue) slot(key uint64) uint64 {
	mask := uint64(len(q.index) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> q.shift; ; i = (i + 1) & mask {
		if k := q.index[i]; k == 0 || q.slab[k-1].key == key {
			return i
		}
	}
}

// bucketOf returns the bucket of key, nil if the pair has none.
func (q *msgQueue) bucketOf(key uint64) *bucket {
	if len(q.slab) == 0 {
		return nil
	}
	if k := q.index[q.slot(key)]; k != 0 {
		return &q.slab[k-1]
	}
	return nil
}

// newBucket appends an empty bucket for key, which has none. When the
// index would be more than half full it first compacts, if that frees at
// least half the slab, and grows the index otherwise.
func (q *msgQueue) newBucket(key uint64) *bucket {
	if 2*(len(q.slab)+1) > len(q.index) {
		if q.drained > 0 && 2*q.drained >= len(q.slab) {
			q.compact()
		} else {
			q.index = make([]int32, max(2*len(q.index), 8))
			q.shift = uint(64 - bits.TrailingZeros(uint(len(q.index))))
			q.reindex()
		}
	}
	q.slab = append(q.slab, bucket{key: key})
	q.drained++
	q.index[q.slot(key)] = int32(len(q.slab))
	return &q.slab[len(q.slab)-1]
}

// compact drops the drained buckets from the slab in one pass, keeping the
// order of the others, and rebuilds the index over what is left.
func (q *msgQueue) compact() {
	live := q.slab[:0]
	for _, b := range q.slab {
		if b.head != nil {
			live = append(live, b)
		}
	}
	clear(q.slab[len(live):]) // moved buckets' old copies hold message pointers
	q.slab = live
	q.drained = 0
	q.reindex()
}

// reindex rebuilds the index over the slab.
func (q *msgQueue) reindex() {
	clear(q.index)
	for i := range q.slab {
		q.index[q.slot(q.slab[i].key)] = int32(i + 1)
	}
}

// find locates the first queued match of (ctx, src, tag) — the earliest
// arrival among matches, as in MPI matching order — without removing it:
// message m of bucket b, after prev (nil at the head). A miss returns a
// nil message. Under the goroutine engine the caller holds q.mu.
func (q *msgQueue) find(ctx, src, tag int) (b *bucket, prev, m *message) {
	if src != AnySource {
		if b = q.bucketOf(pairKey(ctx, src)); b != nil {
			for c := b.head; c != nil; prev, c = c, c.next {
				if tag == AnyTag || c.tag == tag {
					return b, prev, c
				}
			}
		}
		return nil, nil, nil
	}
	// A wildcard scan walks the whole slab, so it keeps drained buckets
	// under half of it: the scan costs at most twice the pairs with
	// traffic, plus the floor.
	if len(q.slab) > compactFloor && 2*q.drained >= len(q.slab) {
		q.compact()
	}
	for i := range q.slab {
		cand := &q.slab[i]
		if cand.head == nil || int(cand.key>>32) != ctx {
			continue
		}
		var p *message
		for c := cand.head; c != nil; p, c = c, c.next {
			if tag != AnyTag && c.tag != tag {
				continue
			}
			// First tag match in a bucket is its earliest (FIFO per pair).
			if m == nil || c.seq < m.seq {
				b, prev, m = cand, p, c
			}
			break
		}
	}
	return b, prev, m
}

// remove unlinks the message find located from its bucket.
func (q *msgQueue) remove(b *bucket, prev, m *message) *message {
	if prev == nil {
		b.head = m.next
	} else {
		prev.next = m.next
	}
	if b.tail == m {
		b.tail = prev
	}
	if b.head == nil {
		q.drained++
	}
	m.next = nil
	q.count--
	return m
}

// take removes and returns the first queued message matching (c.ctx, src,
// tag), blocking until one arrives. First-queued order preserves MPI's
// non-overtaking guarantee between a fixed sender/receiver pair. It
// returns ErrAborted if the world aborts while waiting, and an MPIError
// when the wait can never be satisfied because of a failure or revocation
// (c.waitErr); a pending match is always delivered before either.
func (q *msgQueue) take(c *Comm, src, tag int) (*message, error) {
	if ev := q.owner.world.ev; ev != nil {
		return q.takeEvent(ev, c, src, tag, -1)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if b, prev, m := q.find(c.ctx, src, tag); m != nil {
			return q.remove(b, prev, m), nil
		}
		if q.aborted.Load() {
			return nil, ErrAborted
		}
		if err := c.waitErr(src); err != nil {
			return nil, err
		}
		q.cond.Wait()
	}
}

// takeEvent is the event-engine take (and takeDeadline, with deadlineAt ≥
// 0 in virtual ns): instead of waiting on the condition variable, the
// owner parks with the scheduler and re-scans on each wake-up. It takes no
// lock (see msgQueue).
func (q *msgQueue) takeEvent(ev *evScheduler, c *Comm, src, tag int, deadlineAt int64) (*message, error) {
	for {
		if m, err := q.poll(c, src, tag); m != nil || err != nil {
			return m, err
		}
		if deadlineAt >= 0 && q.owner.clock >= deadlineAt {
			return nil, timeoutErr("recv")
		}
		switch ev.parkRecv(q.owner, deadlineAt, c.ctx, src, tag) {
		case evWakeTimeout:
			// Advance to the deadline; a message that arrived exactly at
			// it is still delivered by the re-scan, otherwise the check
			// above returns ErrTimeout.
			if deadlineAt > q.owner.clock {
				q.owner.clock = deadlineAt
			}
		case evWakeDeadlock:
			return nil, deadlockErr("recv")
		}
	}
}

// poll is one pass of the event-engine wait loop: the first queued match,
// removed; else ErrAborted, or the error a failure or revocation makes
// final; (nil, nil) means wait.
func (q *msgQueue) poll(c *Comm, src, tag int) (*message, error) {
	if b, prev, m := q.find(c.ctx, src, tag); m != nil {
		return q.remove(b, prev, m), nil
	}
	if q.aborted.Load() {
		return nil, ErrAborted
	}
	return nil, c.waitErr(src)
}

// takeDeadline is take with a deadline, after which it returns ErrTimeout.
// Under the goroutine engine the deadline is wall clock (a real timer);
// under the event engine it is virtual — the wait expires when the owner's
// virtual clock would reach now+d, which keeps timeouts deterministic and
// replayable. The timer allocation is off the fault-free hot path.
func (q *msgQueue) takeDeadline(c *Comm, src, tag int, d time.Duration) (*message, error) {
	if ev := q.owner.world.ev; ev != nil {
		return q.takeEvent(ev, c, src, tag, q.owner.clock+int64(d))
	}
	var expired atomic.Bool
	timer := time.AfterFunc(d, func() {
		// Flip the flag under the queue lock so a waiter between its
		// check and cond.Wait cannot miss the wakeup.
		q.mu.Lock()
		expired.Store(true)
		q.mu.Unlock()
		q.cond.Broadcast()
	})
	defer timer.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if b, prev, m := q.find(c.ctx, src, tag); m != nil {
			return q.remove(b, prev, m), nil
		}
		if q.aborted.Load() {
			return nil, ErrAborted
		}
		if err := c.waitErr(src); err != nil {
			return nil, err
		}
		if expired.Load() {
			return nil, timeoutErr("recv")
		}
		q.cond.Wait()
	}
}

// peek blocks until a matching message is queued and returns it without
// removing it (Probe); error semantics as in take.
func (q *msgQueue) peek(c *Comm, src, tag int) (*message, error) {
	if ev := q.owner.world.ev; ev != nil {
		return q.peekEvent(ev, c, src, tag)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if _, _, m := q.find(c.ctx, src, tag); m != nil {
			return m, nil
		}
		if q.aborted.Load() {
			return nil, ErrAborted
		}
		if err := c.waitErr(src); err != nil {
			return nil, err
		}
		q.cond.Wait()
	}
}

// peekEvent is the event-engine peek: same park/re-scan protocol as
// takeEvent, without removing the match.
func (q *msgQueue) peekEvent(ev *evScheduler, c *Comm, src, tag int) (*message, error) {
	for {
		if _, _, m := q.find(c.ctx, src, tag); m != nil {
			return m, nil
		}
		if q.aborted.Load() {
			return nil, ErrAborted
		}
		if err := c.waitErr(src); err != nil {
			return nil, err
		}
		if ev.parkRecv(q.owner, -1, c.ctx, src, tag) == evWakeDeadlock {
			return nil, deadlockErr("probe")
		}
	}
}

// tryTake is take without blocking; ok reports whether a match was found.
func (q *msgQueue) tryTake(ctx, src, tag int) (*message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b, prev, m := q.find(ctx, src, tag); m != nil {
		return q.remove(b, prev, m), true
	}
	return nil, false
}

// pending returns the number of queued messages (diagnostics and tests).
func (q *msgQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}
