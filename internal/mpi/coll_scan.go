package mpi

// Prefix reductions: Scan (inclusive) and Exscan (exclusive), both linear
// pipelines over the communicator's rank order.

import "fmt"

// Scan computes the inclusive prefix reduction: rank i's recv holds
// op(send_0, ..., send_i). Linear-chain algorithm.
func (c *Comm) Scan(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("scan")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.scan(send, recv, dt, op))
}

func (c *Comm) scan(send, recv []byte, dt Datatype, op Op) error {
	if err := checkReduce("scan", send, recv, true, dt, op); err != nil {
		return err
	}
	ctx := c.collCtx()
	// The running prefix travels down the chain in one pooled message: each
	// rank folds its contribution into the buffer it received — earlier ranks
	// combine on the left — copies the result out and passes the message on.
	var m *message
	if c.rank == 0 {
		m = cloneMsg(send)
	} else {
		var err error
		if m, err = c.recvMsgOn(ctx, c.rank-1, tagScan); err != nil {
			return err
		}
		if err = reduceTo(m.data, m.data, send, dt, op); err != nil {
			m.release()
			return err
		}
	}
	copy(recv, m.data)
	if c.rank == len(c.group)-1 {
		m.release()
		return nil
	}
	return c.sendMsgOn(ctx, c.rank+1, tagScan, m)
}

// Exscan computes the exclusive prefix reduction: rank i's recv holds
// op(send_0, ..., send_{i-1}); rank 0's recv is left untouched, as in MPI.
func (c *Comm) Exscan(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("exscan")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.exscan(send, recv, dt, op))
}

func (c *Comm) exscan(send, recv []byte, dt Datatype, op Op) error {
	if err := checkReduce("exscan", send, recv, true, dt, op); err != nil {
		return err
	}
	ctx := c.collCtx()
	last := c.rank == len(c.group)-1
	if c.rank == 0 {
		if last {
			return nil
		}
		return c.sendCopyOn(ctx, 1, tagScan, send)
	}
	m, err := c.recvMsgOn(ctx, c.rank-1, tagScan)
	if err != nil {
		return err
	}
	if len(m.data) != len(send) {
		err = fmt.Errorf("mpi: exscan prefix has %d bytes, want %d", len(m.data), len(send))
	} else if !last {
		// Fold the prefix and send into a fresh pooled message — earlier
		// ranks combine on the left — before recv is written, so an aliased
		// recv (send == recv) still contributes its original contents.
		next := getMsg(len(send), true)
		_ = reduceTo(next.data, m.data, send, dt, op) // cannot fail: checked above
		err = c.sendMsgOn(ctx, c.rank+1, tagScan, next)
	}
	if err == nil {
		copy(recv, m.data)
	}
	m.release()
	return err
}
