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
	if err := checkReduce("allreduce", send, recv, true, dt, op); err != nil {
		return err
	}
	n := len(c.group)
	ctx := c.collCtx()
	copy(recv, send)
	if n == 1 {
		return nil
	}

	pof2, rem, newRank, err := c.foldIn(ctx, tagRsct, recv, dt, op)
	if err != nil {
		return err
	}
	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := foldPeer(newRank^mask, rem)
			if err := c.sendrecvReduceOn(ctx, peer, tagRsct+mask, recv, recv, dt, op); err != nil {
				return err
			}
		}
	}
	return c.foldOut(ctx, tagRsct+1<<19, rem, recv)
}

// foldIn is the pre-step of the allreduce algorithms that need a power of
// two, on a group of pof2+rem ranks (pof2 the largest power of two ≤ n): the
// first 2*rem ranks fold pairwise under tag, so pof2 ranks hold partial
// results. newRank is this rank's index among those, or -1 for an even rank
// of the folded region, which has sent its data to rank+1 and sits out until
// foldOut.
func (c *Comm) foldIn(ctx, tag int, recv []byte, dt Datatype, op Op) (pof2, rem, newRank int, err error) {
	pof2 = 1
	for pof2*2 <= len(c.group) {
		pof2 *= 2
	}
	rem = len(c.group) - pof2
	switch {
	case c.rank >= 2*rem:
		return pof2, rem, c.rank - rem, nil
	case c.rank%2 == 0:
		return pof2, rem, -1, c.sendCopyOn(ctx, c.rank+1, tag, recv)
	default:
		return pof2, rem, c.rank / 2, c.recvReduceOn(ctx, c.rank-1, tag, recv, recv, dt, op)
	}
}

// foldPeer maps an index among the pof2 ranks left by foldIn back to a rank
// of the group: the odd ranks of the folded region hold the data.
func foldPeer(newRank, rem int) int {
	if newRank < rem {
		return 2*newRank + 1
	}
	return newRank + rem
}

// foldOut is the post-step matching foldIn: the even ranks that sat out get
// the full result from their partner.
func (c *Comm) foldOut(ctx, tag, rem int, recv []byte) error {
	switch {
	case c.rank >= 2*rem:
		return nil
	case c.rank%2 == 0:
		_, err := c.recvOn(ctx, c.rank+1, tag, recv)
		return err
	default:
		return c.sendCopyOn(ctx, c.rank-1, tag, recv)
	}
}

// sendrecvReduceOn exchanges with one peer under one tag: it sends a pooled
// copy of data, then folds the peer's message into acc as recvReduceOn does.
// acc may alias data: the copy leaves before the fold writes.
func (c *Comm) sendrecvReduceOn(ctx, peer, tag int, data, acc []byte, dt Datatype, op Op) error {
	if err := c.sendCopyOn(ctx, peer, tag, data); err != nil {
		return err
	}
	return c.recvReduceOn(ctx, peer, tag, acc, acc, dt, op)
}

// ReduceScatterBlock reduces elementwise across the group and leaves block
// i of the result (len(send)/n bytes) on rank i, using n-1 pairwise
// exchange rounds. send must be a multiple of n times the element size;
// recv receives one block and, being the accumulator, must not overlap send.
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
	own := send[c.rank*blk : (c.rank+1)*blk]
	if err := checkReduce("reduce-scatter block", own, recv, true, dt, op); err != nil {
		return err
	}
	ctx := c.collCtx()
	copy(recv, own)
	// Pairwise exchange: in round s, send the block owned by (rank+s) to
	// its owner and combine the block received for us.
	for s := 1; s < n; s++ {
		dst := (c.rank + s) % n
		src := (c.rank - s + n) % n
		if err := c.sendCopyOn(ctx, dst, tagRsct+s, send[dst*blk:(dst+1)*blk]); err != nil {
			return err
		}
		if err := c.recvReduceOn(ctx, src, tagRsct+s, recv, recv, dt, op); err != nil {
			return err
		}
	}
	return nil
}
