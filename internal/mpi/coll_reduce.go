package mpi

// Reduction variants. Like Open MPI's tuned collective component, the
// runtime offers several algorithms per operation: the defaults in coll.go
// are the ones the paper's experiments name (binomial bcast, binary-tree
// reduce, ring allgather); this file adds the recursive-doubling allreduce
// and the block reduce-scatter. Like every variant (coll_scan.go,
// coll_sag.go, coll_gatherv.go, coll_alltoallv.go, coll_stream.go,
// coll_portfolio.go) they decompose into point-to-point messages on the
// collective context, so the monitoring component sees them the same way.

import (
	"fmt"
)

// AllreduceRD performs an allreduce with the recursive-doubling algorithm:
// log2(n) rounds of pairwise exchange-and-combine. For non-power-of-two
// groups the standard pre/post folding steps are applied. It is
// latency-optimal for short vectors, whereas Allreduce (reduce+bcast) moves
// less data at the root for long ones.
func (c *Comm) AllreduceRD(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allreduce.rd")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allreduceRD(send, recv, dt, op))
}

func (c *Comm) allreduceRD(send, recv []byte, dt Datatype, op Op) error {
	if len(recv) != len(send) {
		return fmt.Errorf("mpi: allreduce buffers differ in length (%d vs %d)", len(send), len(recv))
	}
	n := len(c.group)
	ctx := c.collCtx()
	copy(recv, send)
	if n == 1 {
		return nil
	}

	// pof2 = largest power of two <= n.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	size := len(send)

	// Pre-step: the first 2*rem ranks fold pairwise so that pof2 ranks
	// hold partial results.
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Sends its data to rank+1 and sits out.
		if err := c.sendCopyOn(ctx, c.rank+1, tagRsct, recv); err != nil {
			return err
		}
	case c.rank < 2*rem:
		buf := make([]byte, size)
		if _, err := c.recvOn(ctx, c.rank-1, tagRsct, buf); err != nil {
			return err
		}
		if err := reduceInto(recv, buf, dt, op); err != nil {
			return err
		}
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}

	if newRank >= 0 {
		buf := make([]byte, size)
		for mask := 1; mask < pof2; mask <<= 1 {
			newPeer := newRank ^ mask
			peer := newPeer + rem
			if newPeer < rem {
				peer = newPeer * 2
				peer++ // odd ranks of the folded region hold the data
			}
			if _, err := c.sendrecvOn(ctx, peer, tagRsct+mask, recv, peer, tagRsct+mask, buf); err != nil {
				return err
			}
			if err := reduceInto(recv, buf, dt, op); err != nil {
				return err
			}
		}
	}

	// Post-step: folded-out even ranks get the result from their partner.
	if c.rank < 2*rem {
		if c.rank%2 == 0 {
			if _, err := c.recvOn(ctx, c.rank+1, tagRsct+1<<19, recv); err != nil {
				return err
			}
		} else {
			if err := c.sendCopyOn(ctx, c.rank-1, tagRsct+1<<19, recv); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendrecvOn is a combined exchange on an explicit context; the send
// payload is copied through the pooled buffers (the caller keeps data).
func (c *Comm) sendrecvOn(ctx, dst, sendTag int, data []byte, src, recvTag int, buf []byte) (Status, error) {
	if err := c.sendCopyOn(ctx, dst, sendTag, data); err != nil {
		return Status{}, err
	}
	return c.recvOn(ctx, src, recvTag, buf)
}

// ReduceScatterBlock reduces elementwise across the group and leaves block
// i of the result (len(send)/n bytes) on rank i, using n-1 pairwise
// exchange rounds. send must be a multiple of n times the element size;
// recv receives one block.
func (c *Comm) ReduceScatterBlock(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("reduce_scatter_block")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.reduceScatterBlock(send, recv, dt, op))
}

func (c *Comm) reduceScatterBlock(send, recv []byte, dt Datatype, op Op) error {
	n := len(c.group)
	if len(send)%n != 0 {
		return fmt.Errorf("mpi: reduce-scatter buffer of %d bytes is not divisible by %d ranks", len(send), n)
	}
	blk := len(send) / n
	if len(recv) != blk {
		return fmt.Errorf("mpi: reduce-scatter recv buffer has %d bytes, want %d", len(recv), blk)
	}
	ctx := c.collCtx()
	acc := append([]byte(nil), send[c.rank*blk:(c.rank+1)*blk]...)
	buf := make([]byte, blk)
	// Pairwise exchange: in round s, send the block owned by (rank+s) to
	// its owner and combine the block received for us.
	for s := 1; s < n; s++ {
		dst := (c.rank + s) % n
		src := (c.rank - s + n) % n
		if _, err := c.sendrecvOn(ctx, dst, tagRsct+s, send[dst*blk:(dst+1)*blk], src, tagRsct+s, buf); err != nil {
			return err
		}
		if err := reduceInto(acc, buf, dt, op); err != nil {
			return err
		}
	}
	copy(recv, acc)
	return nil
}
