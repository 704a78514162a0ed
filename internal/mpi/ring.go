package mpi

// ring is one rank's ring allgather as a resumable cursor: round s sends
// block rank−s to the right neighbour and receives block rank−s−1 from the
// left one (mod the group size), on tag tagAllgat+s. The
// rank drives the cursor through run; on the event engine, while the rank
// is parked waiting for a round's message, whoever picks the rank next
// drives it instead through advance, in place, without a switch to the
// rank's coroutine (evScheduler.pickSwitch). Both make the same calls in
// the same order, so which rank runs next, the clocks and every counter
// are those of the blocking loop.
//
// Each rank keeps one cursor (Proc.ring), reused by every ring it runs. The
// ring runs with the communicator on its collective context (c.ctx is
// collCtx() from start to end), so the advancing picker sends and matches
// on the right context whatever rank it is.
type ring struct {
	c           *Comm
	left, right int
	// s is the current round, of len(c.group)-1; its message is sent, and
	// before is the clock when its receive began (the start of the
	// telemetry's recv wait).
	s      int
	before int64
	// carry selects the data ring (Allgather, Split, Dup): out is the
	// message round s sends — this rank's own block, then each message
	// received, forwarded as it is, so only the own block is ever copied —
	// and each payload received is read into its size-byte block of recv.
	// The skeleton ring (AllgatherN) sends a size-only message of size
	// bytes each round and recycles what it receives.
	carry bool
	out   *message
	recv  []byte
	size  int
	// err is the error that ended the ring while advance drove it.
	err error
}

// ring runs the ring allgather r on this rank's cursor; r sets the
// payload fields (carry, out, recv, size).
func (c *Comm) ring(r ring) error {
	n := len(c.group)
	r.c, r.left, r.right = c, (c.rank-1+n)%n, (c.rank+1)%n
	cur := c.p.ring
	if cur == nil {
		cur = new(ring)
		c.p.ring = cur
	}
	*cur = r
	saved := c.ctx
	c.ctx = c.collCtx()
	err := cur.run()
	c.ctx = saved
	*cur = ring{} // keeps neither the communicator nor the buffers alive
	return err
}

func (r *ring) tag() int { return tagAllgat + r.s }

func (r *ring) rounds() int { return len(r.c.group) - 1 }

// run drives the ring on the rank's own stack: per round, send then the
// blocking receive. A receive that finds the cursor completed in place
// returns nil and ends the ring with what advance left in r.err.
func (r *ring) run() error {
	for ; r.s < r.rounds(); r.s++ {
		if err := r.send(); err != nil {
			return err
		}
		m, err := r.receive()
		if err != nil {
			return err
		}
		if m == nil {
			return r.err
		}
		r.c.p.arrive(m, r.before)
		if err := r.got(m); err != nil {
			return err
		}
	}
	return nil
}

// send sends round s's message to the right neighbour.
func (r *ring) send() error {
	m := r.out
	if r.carry {
		r.out = nil
	} else {
		m = ownedMsg(nil, r.size)
	}
	return r.c.send(r.right, r.tag(), m, r.c.p.class())
}

// receive is recvMsg for round s's message, up to the arrival charge, with
// one difference on the event engine: a rank that must wait parks as this
// cursor. When the cursor completes in place, receive returns (nil, nil).
// When the rank is switched to for any other reason, the ring may have
// moved on, and the round it is in now finishes through the ordinary
// blocking take; the wait loop's error semantics stay in takeEvent.
func (r *ring) receive() (*message, error) {
	c := r.c
	if err := c.recvReady(r.left, "recv"); err != nil {
		return nil, err
	}
	p := c.p
	r.before = p.clock
	q := &p.queue
	if ev := p.world.ev; ev != nil {
		if m, err := q.poll(c, r.left, r.tag()); m != nil || err != nil {
			return m, err
		}
		switch ev.parkRing(p) {
		case evWakeDone:
			return nil, nil
		case evWakeDeadlock:
			return nil, deadlockErr("recv")
		}
	}
	return q.take(c, r.left, r.tag())
}

// got consumes round s's message, charged to the clock already.
func (r *ring) got(m *message) error {
	if !r.carry {
		m.release()
		return nil
	}
	n := len(r.c.group)
	blk := (r.c.rank - r.s - 1 + n) % n
	if _, err := m.read(r.recv[blk*r.size : (blk+1)*r.size]); err != nil {
		m.release()
		return err
	}
	if r.s == r.rounds()-1 {
		m.release()
	} else {
		r.out = m
	}
	return nil
}

// advance drives the ring from a wake-up of the rank parked in round s's
// receive, on the picker's stack: run's calls without the blocking, until
// the round's message is missing (false: the rank waits again) or the ring
// is over (true: every round is done, or one failed with r.err). The
// scheduler calls it only in a world that has not aborted and has no fault
// tolerance armed, where the wait loop's other checks cannot fire and the
// receive's fault gate is a no-op.
func (r *ring) advance() bool {
	p := r.c.p
	q := &p.queue
	for {
		b, prev, m := q.find(r.c.ctx, r.left, r.tag())
		if m == nil {
			return false
		}
		p.arrive(q.remove(b, prev, m), r.before)
		if r.err = r.got(m); r.err != nil {
			return true
		}
		if r.s++; r.s == r.rounds() {
			return true
		}
		if r.err = r.send(); r.err != nil {
			return true
		}
		r.before = p.clock
	}
}
