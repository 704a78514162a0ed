package mpi

// Prefix reductions: Scan (inclusive) and Exscan (exclusive), both linear
// pipelines over the communicator's rank order.

import (
	"fmt"
)

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
	if len(recv) != len(send) {
		return fmt.Errorf("mpi: scan buffers differ in length (%d vs %d)", len(send), len(recv))
	}
	ctx := c.collCtx()
	copy(recv, send)
	if c.rank > 0 {
		buf := make([]byte, len(send))
		if _, err := c.recvOn(ctx, c.rank-1, tagScan, buf); err != nil {
			return err
		}
		// Prefix order: earlier ranks combine on the left.
		if err := reduceInto(buf, send, dt, op); err != nil {
			return err
		}
		copy(recv, buf)
	}
	if c.rank < len(c.group)-1 {
		return c.sendCopyOn(ctx, c.rank+1, tagScan, recv)
	}
	return nil
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
	if len(recv) != len(send) {
		return fmt.Errorf("mpi: exscan buffers differ in length (%d vs %d)", len(send), len(recv))
	}
	ctx := c.collCtx()
	n := len(c.group)
	var prefix []byte
	if c.rank > 0 {
		prefix = make([]byte, len(send))
		if _, err := c.recvOn(ctx, c.rank-1, tagScan, prefix); err != nil {
			return err
		}
	}
	if c.rank < n-1 {
		if prefix == nil {
			if err := c.sendCopyOn(ctx, c.rank+1, tagScan, send); err != nil {
				return err
			}
		} else {
			// Fold send into the outgoing prefix before recv is written,
			// so an aliased recv (send == recv) still reads the original
			// contribution.
			tmp := append([]byte(nil), prefix...)
			if err := reduceInto(tmp, send, dt, op); err != nil {
				return err
			}
			if err := c.sendOn(ctx, c.rank+1, tagScan, tmp, len(tmp)); err != nil {
				return err
			}
		}
	}
	if prefix != nil {
		copy(recv, prefix)
	}
	return nil
}
