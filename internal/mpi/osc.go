package mpi

import (
	"encoding/binary"
	"fmt"

	"mpimon/internal/pml"
)

// One-sided message tags (on the window's private communicator).
const (
	tagData   = 8 << 20  // put or accumulate payload
	tagGetReq = 9 << 20  // get request
	tagGetRep = 10 << 20 // get reply
)

// One-sided payload kinds, first header byte of a tagData message.
const (
	oscPut = iota
	oscAcc
)

// dataHeader is the fixed prefix of a tagData payload: kind(1) offset(8)
// datatype(4) op(4).
const dataHeader = 17

// Win is a one-sided communication window over a communicator, with
// active-target synchronization: epochs are delimited by Fence calls, and
// Put/Get/Accumulate issued inside an epoch complete at the closing Fence.
type Win struct {
	c   *Comm
	buf []byte

	putsTo  []int // data messages sent to each target this epoch
	getsTo  []int // get requests sent to each target this epoch
	pending []pendingGet
	freed   bool
}

type pendingGet struct {
	dst int
	buf []byte
}

// CreateWin exposes buf for one-sided access by the members of c.
// Collective over c; internally the window gets a private duplicate of the
// communicator so its traffic cannot match user messages.
func (c *Comm) CreateWin(buf []byte) (*Win, error) {
	dup, err := c.Dup()
	if err != nil {
		return nil, err
	}
	n := dup.Size()
	return &Win{c: dup, buf: buf, putsTo: make([]int, n), getsTo: make([]int, n)}, nil
}

// Comm returns the window's private communicator.
func (w *Win) Comm() *Comm { return w.c }

func (w *Win) checkOpen() error {
	if w.freed {
		return fmt.Errorf("mpi: operation on a freed window")
	}
	return nil
}

// oscSend transmits a one-sided message, monitored with class Osc. It
// takes ownership of m (built with getMsg/cloneMsg).
func (w *Win) oscSend(dst, tag int, m *message) error {
	t0 := w.c.p.enterMPI()
	defer w.c.p.leaveMPI(t0)
	return w.c.send(dst, tag, m, pml.Osc)
}

// Put writes data into the target's window buffer at the given byte offset.
// The transfer is complete only after the next Fence.
func (w *Win) Put(dst, offset int, data []byte) error {
	return w.sendData(dst, offset, data, oscPut, Byte, OpSum)
}

// Accumulate combines data into the target's window buffer at the byte
// offset using op over dt elements. Completes at the next Fence.
func (w *Win) Accumulate(dst, offset int, data []byte, dt Datatype, op Op) error {
	if err := checkReduce("accumulate", data, nil, false, dt, op); err != nil {
		return err
	}
	return w.sendData(dst, offset, data, oscAcc, dt, op)
}

func (w *Win) sendData(dst, offset int, data []byte, kind byte, dt Datatype, op Op) error {
	if err := w.checkOpen(); err != nil {
		return err
	}
	if err := w.c.checkRank(dst, "target"); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("mpi: negative window offset %d", offset)
	}
	m := getMsg(dataHeader+len(data), true)
	payload := m.data
	payload[0] = kind
	binary.LittleEndian.PutUint64(payload[1:], uint64(offset))
	binary.LittleEndian.PutUint32(payload[9:], uint32(dt))
	binary.LittleEndian.PutUint32(payload[13:], uint32(op))
	copy(payload[dataHeader:], data)
	if err := w.oscSend(dst, tagData, m); err != nil {
		return err
	}
	w.putsTo[dst]++
	return nil
}

// Get schedules a read of len(buf) bytes at the target's window offset into
// buf; buf is valid only after the next Fence.
func (w *Win) Get(dst, offset int, buf []byte) error {
	if err := w.checkOpen(); err != nil {
		return err
	}
	if err := w.c.checkRank(dst, "target"); err != nil {
		return err
	}
	m := getMsg(16, true)
	binary.LittleEndian.PutUint64(m.data, uint64(offset))
	binary.LittleEndian.PutUint64(m.data[8:], uint64(len(buf)))
	if err := w.oscSend(dst, tagGetReq, m); err != nil {
		return err
	}
	w.getsTo[dst]++
	w.pending = append(w.pending, pendingGet{dst: dst, buf: buf})
	return nil
}

// Fence closes the current epoch: all Put/Accumulate calls issued by any
// member are applied to the target buffers, all Get buffers are filled, and
// no member leaves before every other has entered. Collective over the
// window's communicator.
func (w *Win) Fence() error {
	if err := w.checkOpen(); err != nil {
		return err
	}
	c := w.c
	p := c.p
	t0 := p.enterMPI()
	defer p.leaveMPI(t0)
	defer c.span("win.fence")()
	n := c.Size()

	// 1. Exchange per-peer (put, get) counts; synchronization traffic is
	// library-internal (class Coll), only Put/Get data is class Osc.
	send := make([]byte, 16*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(send[16*i:], uint64(w.putsTo[i]))
		binary.LittleEndian.PutUint64(send[16*i+8:], uint64(w.getsTo[i]))
	}
	recv := make([]byte, 16*n)
	p.beginInternal()
	err := c.Alltoall(send, recv)
	p.endInternal()
	if err != nil {
		return err
	}

	// 2. Apply incoming puts/accumulates and serve incoming get requests.
	// Everything received here was sent by the peer before its Fence, so
	// the counts from step 1 are complete.
	for src := 0; src < n; src++ {
		puts := int(binary.LittleEndian.Uint64(recv[16*src:]))
		gets := int(binary.LittleEndian.Uint64(recv[16*src+8:]))
		for k := 0; k < puts; k++ {
			if err := w.applyOne(src); err != nil {
				return err
			}
		}
		for k := 0; k < gets; k++ {
			if err := w.serveGet(src); err != nil {
				return err
			}
		}
	}

	// 3. Collect replies to our own gets, in issue order (FIFO per peer).
	for _, g := range w.pending {
		if _, err := c.recvOn(c.ctx, g.dst, tagGetRep, g.buf); err != nil {
			return err
		}
	}

	// 4. Close the epoch.
	p.beginInternal()
	err = c.barrier()
	p.endInternal()
	if err != nil {
		return err
	}
	for i := range w.putsTo {
		w.putsTo[i], w.getsTo[i] = 0, 0
	}
	w.pending = w.pending[:0]
	return nil
}

// applyOne receives one put or accumulate from src and applies it straight
// from the message buffer.
func (w *Win) applyOne(src int) error {
	c := w.c
	// Probe first, as Fence always has: the wait for the message is charged
	// to the clock and to MPI time there, the receive below finds it queued.
	if _, err := c.Probe(src, tagData); err != nil {
		return err
	}
	m, err := c.recvMsg(src, tagData)
	if err != nil {
		return err
	}
	defer m.release()
	buf := m.data
	if len(buf) < dataHeader {
		return fmt.Errorf("mpi: malformed one-sided payload of %d bytes from %d", len(buf), src)
	}
	kind := buf[0]
	off := int(binary.LittleEndian.Uint64(buf[1:]))
	data := buf[dataHeader:]
	if off < 0 || off+len(data) > len(w.buf) {
		return fmt.Errorf("mpi: one-sided write of %d bytes at offset %d outside window of %d bytes", len(data), off, len(w.buf))
	}
	switch kind {
	case oscPut:
		copy(w.buf[off:], data)
		return nil
	case oscAcc:
		dt := Datatype(binary.LittleEndian.Uint32(buf[9:]))
		op := Op(binary.LittleEndian.Uint32(buf[13:]))
		acc := w.buf[off : off+len(data)]
		return reduceTo(acc, acc, data, dt, op)
	default:
		return fmt.Errorf("mpi: unknown one-sided payload kind %d from %d", kind, src)
	}
}

func (w *Win) serveGet(src int) error {
	c := w.c
	req := make([]byte, 16)
	if _, err := c.recvOn(c.ctx, src, tagGetReq, req); err != nil {
		return err
	}
	off := int(binary.LittleEndian.Uint64(req))
	length := int(binary.LittleEndian.Uint64(req[8:]))
	if off < 0 || length < 0 || off+length > len(w.buf) {
		return fmt.Errorf("mpi: get of %d bytes at offset %d outside window of %d bytes", length, off, len(w.buf))
	}
	return w.oscSend(src, tagGetRep, cloneMsg(w.buf[off:off+length]))
}

// Free releases the window after a final synchronization. Collective.
func (w *Win) Free() error {
	if err := w.checkOpen(); err != nil {
		return err
	}
	p := w.c.p
	t0 := p.enterMPI()
	defer p.leaveMPI(t0)
	p.beginInternal()
	err := w.c.barrier()
	p.endInternal()
	w.freed = true
	return err
}
