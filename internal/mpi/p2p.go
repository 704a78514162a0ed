package mpi

import (
	"fmt"

	"mpimon/internal/pml"
)

// Status describes a completed or probed receive.
type Status struct {
	// Source is the sender's rank in the communicator of the operation.
	Source int
	// Tag is the message tag.
	Tag int
	// Size is the message payload size in bytes.
	Size int
}

// Send transmits data to rank dst of the communicator with the given tag.
// In this runtime Send never blocks waiting for the receiver (buffered
// semantics); for large messages the virtual clock still advances by the
// injection time, modelling a rendezvous-style sender stall.
func (c *Comm) Send(dst, tag int, data []byte) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	return c.herr(c.send(dst, tag, cloneMsg(data), c.p.class()))
}

// SendN transmits a message carrying only a logical payload size, with no
// actual bytes. It prices, routes and monitors exactly like Send; it exists
// so communication-skeleton workloads (the NAS CG skeleton) can replay the
// real message sizes of a large run without allocating the data.
func (c *Comm) SendN(dst, tag, size int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if size < 0 {
		return fmt.Errorf("mpi: negative message size %d", size)
	}
	return c.herr(c.send(dst, tag, ownedMsg(nil, size), c.p.class()))
}

// send is the common path under Send/SendN/collectives/one-sided. It takes
// ownership of m (built with cloneMsg/ownedMsg/getMsg) and enqueues it at
// the destination; the consuming receive recycles it. The monitoring
// component records the message at the instant it is buffered to be sent,
// before the transfer itself — the same interposition point as the Open MPI
// pml monitoring component.
func (c *Comm) send(dst, tag int, m *message, class pml.Class) error {
	if err := c.checkRank(dst, "destination"); err != nil {
		m.release()
		return err
	}
	if tag < 0 {
		m.release()
		return fmt.Errorf("mpi: send tag %d must be non-negative", tag)
	}
	p := c.p
	w := p.world
	dstWorld := c.group[dst]
	dstProc := w.procs[dstWorld]
	size := m.size

	if w.ftOn.Load() {
		if err := c.preSend(dstWorld, "send"); err != nil {
			m.release()
			return err
		}
	}
	p.clock += int64(w.mach.SendOverhead)
	p.mon.Record(class, dstWorld, size, p.clock)
	sentAt := p.clock
	senderFree, arrival, fault := w.net.TransferF(p.core, dstProc.core, size, p.clock)
	if senderFree > p.clock {
		p.clock = senderFree
	}
	if p.tm != nil {
		uc := userCtx(c.ctx)
		cm, cb := p.tm.comm(uc)
		p.tm.agg.Add(cm, 1, p.clock)
		p.tm.agg.Add(cb, int64(size), p.clock)
		p.tr.Message(class.String(), uc, p.rank, dstWorld, int64(size), sentAt, arrival)
	}
	if fault.Drop {
		// The sender is charged and monitored as usual — the bytes left
		// the card — but the receiver never sees the message.
		m.release()
		return nil
	}
	m.src, m.tag, m.ctx = c.rank, tag, c.ctx
	m.sentAt, m.arrival = sentAt, arrival
	if fault.Duplicate {
		dstProc.queue.put(c.dupMsg(m, fault.DupArrival))
	}
	dstProc.queue.put(m)
	return nil
}

// dupMsg builds the spurious copy of a duplicated message (its own backing
// buffer: the two copies are consumed and recycled independently).
func (c *Comm) dupMsg(m *message, arrival int64) *message {
	d := m.clone()
	d.src, d.tag, d.ctx = m.src, m.tag, m.ctx
	d.sentAt, d.arrival = m.sentAt, arrival
	return d
}

// Recv blocks until a message matching (src, tag) on this communicator
// arrives, copies at most len(buf) bytes of it into buf, and returns its
// Status. src may be AnySource and tag AnyTag. A nil buf discards the
// payload. Receiving a message shorter than buf is allowed; longer than buf
// is an error (truncation), as in MPI.
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	st, err := c.recv(src, tag, buf)
	return st, c.herr(err)
}

func (c *Comm) recv(src, tag int, buf []byte) (Status, error) {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return Status{}, err
	}
	return m.deliver(buf)
}

// recvReady validates the source of a receive-side operation and, with a
// fault plan armed, passes it through the fault gate.
func (c *Comm) recvReady(src int, op string) error {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return err
		}
	}
	if c.p.world.ftOn.Load() {
		return c.preRecv(op)
	}
	return nil
}

// recvMsg blocks until a message matching (src, tag) arrives and charges the
// receive to the clock and the telemetry. The caller owns the message: it
// reads m.data, then releases m exactly once, and never touches it after.
func (c *Comm) recvMsg(src, tag int) (*message, error) {
	if err := c.recvReady(src, "recv"); err != nil {
		return nil, err
	}
	p := c.p
	before := p.clock
	m, err := p.queue.take(c, src, tag)
	if err != nil {
		return nil, err
	}
	p.arrive(m, before)
	return m, nil
}

// arrive charges a matched message to the receiver: the clock moves to the
// arrival, the telemetry observes the wait since before, and the receive
// overhead is added.
func (p *Proc) arrive(m *message, before int64) {
	if m.arrival > p.clock {
		p.clock = m.arrival
	}
	p.observeRecvTelemetry(m, before)
	p.clock += int64(p.world.mach.RecvOverhead)
}

// deliver copies a received message out into buf (nil discards the payload)
// and recycles it.
func (m *message) deliver(buf []byte) (Status, error) {
	st, err := m.read(buf)
	m.release()
	return st, err
}

// read copies a received message out into buf (nil discards the payload)
// and leaves it to the caller, who still owns it. A payload longer than a
// non-nil buf is a truncation error and copies nothing.
func (m *message) read(buf []byte) (Status, error) {
	st := Status{Source: m.src, Tag: m.tag, Size: m.size}
	if buf != nil && m.size > len(buf) {
		return st, fmt.Errorf("mpi: message of %d bytes truncated by %d-byte receive buffer", m.size, len(buf))
	}
	copy(buf, m.data)
	return st, nil
}

// clone returns a pooled copy of m's payload, size-only when m carries no
// bytes.
func (m *message) clone() *message {
	if m.data == nil {
		return ownedMsg(nil, m.size)
	}
	return cloneMsg(m.data[:m.size])
}

// Probe blocks until a matching message is available and returns its
// Status without consuming it. The clock advances to the message arrival.
func (c *Comm) Probe(src, tag int) (Status, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if err := c.recvReady(src, "probe"); err != nil {
		return Status{}, c.herr(err)
	}
	p := c.p
	m, err := p.queue.peek(c, src, tag)
	if err != nil {
		return Status{}, c.herr(err)
	}
	if m.arrival > p.clock {
		p.clock = m.arrival
	}
	return Status{Source: m.src, Tag: m.tag, Size: m.size}, nil
}

// Iprobe is the nonblocking Probe; ok reports whether a message matched.
// The clock does not advance.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return Status{}, false, err
		}
	}
	// A nonblocking peek: find without removal, under the queue lock.
	q := &c.p.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, _, m := q.find(c.ctx, src, tag); m != nil {
		return Status{Source: m.src, Tag: m.tag, Size: m.size}, true, nil
	}
	return Status{}, false, nil
}

// Sendrecv performs a combined send to dst and receive from src, as
// MPI_Sendrecv. Because sends never block in this runtime, it is simply a
// send followed by a receive.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if err := c.send(dst, sendTag, cloneMsg(sendData), c.p.class()); err != nil {
		return Status{}, c.herr(err)
	}
	st, err := c.recv(src, recvTag, recvBuf)
	return st, c.herr(err)
}

// SendrecvN is Sendrecv with logical sizes only (skeleton workloads).
func (c *Comm) SendrecvN(dst, sendTag, sendSize, src, recvTag int) (Status, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if err := c.send(dst, sendTag, ownedMsg(nil, sendSize), c.p.class()); err != nil {
		return Status{}, c.herr(err)
	}
	st, err := c.recv(src, recvTag, nil)
	return st, c.herr(err)
}

// Request is a handle on a nonblocking operation; complete it with Wait.
type Request struct {
	c      *Comm
	isSend bool
	done   bool
	// send completion
	freeAt int64
	// recv arguments
	src, tag int
	buf      []byte
	st       Status
	err      error
	// tracked marks requests counted in the telemetry in-flight gauge.
	tracked bool
}

// finish marks the request complete, releasing its in-flight gauge slot.
func (r *Request) finish() {
	r.done = true
	if r.tracked {
		r.c.p.tm.inflight.Dec()
	}
}

// Isend starts a nonblocking send. The sender is charged only the send
// overhead immediately; Wait advances the clock to the injection completion
// for rendezvous-sized messages, modelling communication/computation
// overlap.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	req, err := c.isend(dst, tag, cloneMsg(data))
	return req, c.herr(err)
}

// IsendN is Isend with a logical payload size only.
func (c *Comm) IsendN(dst, tag, size int) (*Request, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if size < 0 {
		return nil, fmt.Errorf("mpi: negative message size %d", size)
	}
	req, err := c.isend(dst, tag, ownedMsg(nil, size))
	return req, c.herr(err)
}

func (c *Comm) isend(dst, tag int, m *message) (*Request, error) {
	if err := c.checkRank(dst, "destination"); err != nil {
		m.release()
		return nil, err
	}
	if tag < 0 {
		m.release()
		return nil, fmt.Errorf("mpi: send tag %d must be non-negative", tag)
	}
	p := c.p
	w := p.world
	dstWorld := c.group[dst]
	dstProc := w.procs[dstWorld]
	size := m.size

	if w.ftOn.Load() {
		if err := c.preSend(dstWorld, "isend"); err != nil {
			m.release()
			return nil, err
		}
	}
	class := p.class()
	p.clock += int64(w.mach.SendOverhead)
	p.mon.Record(class, dstWorld, size, p.clock)
	sentAt := p.clock
	senderFree, arrival, fault := w.net.TransferF(p.core, dstProc.core, size, p.clock)
	tracked := p.tm != nil
	if tracked {
		uc := userCtx(c.ctx)
		cm, cb := p.tm.comm(uc)
		p.tm.agg.Add(cm, 1, p.clock)
		p.tm.agg.Add(cb, int64(size), p.clock)
		p.tr.Message(class.String(), uc, p.rank, dstWorld, int64(size), sentAt, arrival)
		p.tm.inflight.Inc()
	}
	if fault.Drop {
		m.release()
		return &Request{c: c, isSend: true, freeAt: senderFree, tracked: tracked}, nil
	}
	m.src, m.tag, m.ctx = c.rank, tag, c.ctx
	m.sentAt, m.arrival = sentAt, arrival
	if fault.Duplicate {
		dstProc.queue.put(c.dupMsg(m, fault.DupArrival))
	}
	dstProc.queue.put(m)
	return &Request{c: c, isSend: true, freeAt: senderFree, tracked: tracked}, nil
}

// Irecv starts a nonblocking receive into buf; the matching and the clock
// update happen at Wait. Note the simplification relative to MPI: messages
// match in Wait order, not Irecv-posting order, which is indistinguishable
// for deterministic tag/source patterns.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return nil, err
		}
	}
	tracked := c.p.tm != nil
	if tracked {
		c.p.tm.inflight.Inc()
	}
	return &Request{c: c, isSend: false, src: src, tag: tag, buf: buf, tracked: tracked}, nil
}

// Wait completes the request, advancing the virtual clock accordingly.
func (r *Request) Wait() (Status, error) {
	if r.done {
		return r.st, r.err
	}
	r.finish()
	p := r.c.p
	t0 := p.enterMPI()
	defer p.leaveMPI(t0)
	if r.isSend {
		if r.freeAt > p.clock {
			p.clock = r.freeAt
		}
		return Status{}, nil
	}
	r.st, r.err = r.c.recv(r.src, r.tag, r.buf)
	r.err = r.c.herr(r.err)
	return r.st, r.err
}

// WaitAll completes every request, returning the first error.
func WaitAll(reqs ...*Request) error {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// Test nonblockingly checks a request for completion (MPI_Test): ok
// reports whether it completed; when ok, the status is valid and the
// request is done. For sends, completion means the injection time has been
// reached on the virtual clock; for receives, that a matching message is
// queued (which is then consumed).
func (r *Request) Test() (Status, bool, error) {
	if r.done {
		return r.st, true, r.err
	}
	p := r.c.p
	if r.isSend {
		if r.freeAt > p.clock {
			return Status{}, false, nil
		}
		r.finish()
		return Status{}, true, nil
	}
	before := p.clock
	m, ok := p.queue.tryTake(r.c.ctx, r.src, r.tag)
	if !ok {
		// No pending match: a failed sender or a revoked communicator
		// means none can ever appear, so complete the request with the
		// error instead of letting the caller poll forever.
		if p.world.ftOn.Load() {
			if err := r.c.waitErr(r.src); err != nil {
				r.finish()
				r.err = r.c.herr(err)
				return Status{}, true, r.err
			}
		}
		return Status{}, false, nil
	}
	r.finish()
	p.arrive(m, before)
	r.st, r.err = m.deliver(r.buf)
	return r.st, true, r.err
}

// Waitany blocks until one of the requests completes and returns its index
// and status (MPI_Waitany). Completed requests are skipped on subsequent
// calls by passing the remaining ones.
func Waitany(reqs ...*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("mpi: Waitany with no requests")
	}
	// Fast path: anything already completable without blocking.
	for {
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if st, ok, err := r.Test(); ok {
				return i, st, err
			}
		}
		// Nothing ready: block on the first incomplete one. Blocking on
		// a specific request is the standard progression strategy here
		// because the virtual-time queue has no umbrella wait primitive.
		for i, r := range reqs {
			if r == nil || r.done {
				continue
			}
			st, err := r.Wait()
			return i, st, err
		}
		return -1, Status{}, fmt.Errorf("mpi: Waitany with only nil or completed requests")
	}
}
