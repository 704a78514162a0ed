package mpi

// Large-message and power-of-two variants of the defaults in coll.go: the
// scatter-allgather (van de Geijn) broadcast and the recursive-doubling
// allgather.

import (
	"fmt"
)

// BcastSAG broadcasts with the scatter-allgather (van de Geijn) algorithm,
// the usual choice for large buffers: the root scatters blocks binomially,
// then a ring allgather reassembles them everywhere. The buffer length must
// be divisible by the group size.
func (c *Comm) BcastSAG(buf []byte, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("bcast.sag")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.bcastSAG(buf, root))
}

func (c *Comm) bcastSAG(buf []byte, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	if len(buf)%n != 0 {
		return fmt.Errorf("mpi: scatter-allgather bcast needs a buffer divisible by %d ranks, got %d bytes", n, len(buf))
	}
	blk := len(buf) / n
	ctx := c.collCtx()

	// Scatter: relative rank r receives blocks [r, r+span) from its
	// binomial parent and forwards halves down the tree.
	vrank := (c.rank - root + n) % n
	toReal := func(v int) int { return (v + root) % n }
	// Find the number of blocks this vrank is responsible for: largest
	// power-of-two span below its subtree, clipped to n.
	recvFrom := -1
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			recvFrom = vrank &^ mask
			break
		}
		mask <<= 1
	}
	span := mask // blocks [vrank, vrank+span) clipped at n
	if vrank == 0 {
		span = 1
		for span < n {
			span <<= 1
		}
	}
	if recvFrom >= 0 {
		hi := vrank + span
		if hi > n {
			hi = n
		}
		if _, err := c.recvOn(ctx, toReal(recvFrom), tagBsag, buf[vrank*blk:hi*blk]); err != nil {
			return err
		}
	}
	child := span >> 1
	for child > 0 {
		cv := vrank + child
		if cv < n {
			hi := cv + child
			if hi > n {
				hi = n
			}
			if err := c.sendCopyOn(ctx, toReal(cv), tagBsag, buf[cv*blk:hi*blk]); err != nil {
				return err
			}
		}
		child >>= 1
	}

	// Allgather (ring) over the blocks, indexed by vrank.
	right := toReal((vrank + 1) % n)
	left := toReal((vrank - 1 + n) % n)
	for s := 0; s < n-1; s++ {
		sendBlk := (vrank - s + n) % n
		recvBlk := (vrank - s - 1 + n) % n
		if err := c.sendCopyOn(ctx, right, tagBsag+1+s, buf[sendBlk*blk:(sendBlk+1)*blk]); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, left, tagBsag+1+s, buf[recvBlk*blk:(recvBlk+1)*blk]); err != nil {
			return err
		}
	}
	return nil
}

// AllgatherRD is the recursive-doubling allgather for power-of-two groups:
// log2(n) rounds exchanging doubling block ranges. Falls back to the ring
// algorithm otherwise (same accounting: the call is still bracketed by its
// own span and MPI-time window, so the fallback does not masquerade as a
// plain Allgather).
func (c *Comm) AllgatherRD(send, recv []byte) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allgather.rd")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allgatherRD(send, recv))
}

func (c *Comm) allgatherRD(send, recv []byte) error {
	n := len(c.group)
	if n&(n-1) != 0 {
		return c.allgather(send, recv)
	}
	blk := len(send)
	if len(recv) != n*blk {
		return fmt.Errorf("mpi: allgather recv buffer has %d bytes, want %d", len(recv), n*blk)
	}
	ctx := c.collCtx()
	copy(recv[c.rank*blk:], send)
	// After round k, each rank holds the 2^(k+1) blocks of its aligned
	// group.
	for mask := 1; mask < n; mask <<= 1 {
		peer := c.rank ^ mask
		lo := (c.rank &^ (mask - 1)) * blk // aligned start of held range
		held := mask * blk
		start := (c.rank &^ (2*mask - 1)) * blk // range after the round
		peerLo := (peer &^ (mask - 1)) * blk
		if err := c.sendCopyOn(ctx, peer, tagAllgat+1<<10+mask, recv[lo:lo+held]); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, peer, tagAllgat+1<<10+mask, recv[peerLo:peerLo+held]); err != nil {
			return err
		}
		_ = start
	}
	return nil
}
