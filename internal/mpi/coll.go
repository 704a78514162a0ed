package mpi

import (
	"fmt"
)

// Collective-internal message tags, one per algorithm, all declared here so
// the sequence has no gaps to guess at: 8-10 << 20 are the one-sided tags
// tagData, tagGetReq and tagGetRep of osc.go, and 11 << 20 is unused.
// Collective traffic travels on a separate context (see collCtx), so these
// never collide with user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 2 << 20
	tagReduce  = 3 << 20
	tagGather  = 4 << 20
	tagAllgat  = 5 << 20
	tagScatter = 6 << 20
	tagAlltoal = 7 << 20

	tagRsct      = 12 << 20 // AllreduceRD, ReduceScatterBlock
	tagScan      = 13 << 20 // Scan, Exscan
	tagBsag      = 14 << 20 // BcastSAG
	tagGathv     = 15 << 20 // Gatherv, Scatterv
	tagAlltoallv = 16 << 20 // Alltoallv
	tagGast      = 17 << 20 // GatherStream blocks
	tagRing      = 18 << 20 // AllreduceRing rounds
	tagRab       = 19 << 20 // AllreduceRab fold/exchange/unfold
	tagBruck     = 20 << 20 // AlltoallvBruck rounds
)

// collCtx returns the context id collective-internal messages of this
// communicator travel on. Separating it from the user context mirrors how
// MPI implementations protect collectives from stray user messages.
func (c *Comm) collCtx() int { return -(c.ctx + 1) }

// sendMsgOn sends a message built with cloneMsg/ownedMsg on an explicit
// context and takes ownership of it, like send.
func (c *Comm) sendMsgOn(ctx, dst, tag int, m *message) error {
	saved := c.ctx
	c.ctx = ctx
	err := c.send(dst, tag, m, c.p.class())
	c.ctx = saved
	return err
}

// sendOn sends on an explicit context, taking ownership of data (the caller
// must not touch it again); data may be nil for size-only messages.
func (c *Comm) sendOn(ctx, dst, tag int, data []byte, size int) error {
	return c.sendMsgOn(ctx, dst, tag, ownedMsg(data, size))
}

// sendCopyOn sends a copy of data on an explicit context through the pooled
// message buffers; the caller keeps ownership of data.
func (c *Comm) sendCopyOn(ctx, dst, tag int, data []byte) error {
	return c.sendMsgOn(ctx, dst, tag, cloneMsg(data))
}

func (c *Comm) recvOn(ctx, src, tag int, buf []byte) (Status, error) {
	saved := c.ctx
	c.ctx = ctx
	st, err := c.recv(src, tag, buf)
	c.ctx = saved
	return st, err
}

// recvMsgOn is recvMsg on an explicit context: the caller owns the message,
// reads m.data before it releases or forwards m, and never after.
func (c *Comm) recvMsgOn(ctx, src, tag int) (*message, error) {
	saved := c.ctx
	c.ctx = ctx
	m, err := c.recvMsg(src, tag)
	c.ctx = saved
	return m, err
}

// recvReduceOn receives on an explicit context and folds the payload,
// straight from the message buffer, into dst = op(own, payload); dst may be
// own itself. The payload must be exactly len(own) bytes; the message is
// released whatever the outcome.
func (c *Comm) recvReduceOn(ctx, src, tag int, dst, own []byte, dt Datatype, op Op) error {
	m, err := c.recvMsgOn(ctx, src, tag)
	if err != nil {
		return err
	}
	err = reduceTo(dst, own, m.data, dt, op)
	m.release()
	return err
}

// Barrier blocks until every member of the communicator has entered it. It
// uses the dissemination algorithm: ceil(log2 n) rounds of zero-byte
// point-to-point messages — the zero-length internal messages the paper
// notes collectives may generate.
func (c *Comm) Barrier() error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("barrier")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.barrier())
}

func (c *Comm) barrier() error {
	n := len(c.group)
	ctx := c.collCtx()
	for k, off := 0, 1; off < n; k, off = k+1, off*2 {
		dst := (c.rank + off) % n
		src := (c.rank - off + n) % n
		if err := c.sendOn(ctx, dst, tagBarrier+k, nil, 0); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, src, tagBarrier+k, nil); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts root's buf to every member using a binomial tree; on
// non-root ranks buf receives the data. Collective over c.
func (c *Comm) Bcast(buf []byte, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("bcast")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.bcast(buf, len(buf), root, true))
}

// BcastN is Bcast for a logical payload of size bytes with no data movement
// (skeleton workloads); it sends the exact same tree messages.
func (c *Comm) BcastN(size, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("bcast")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.bcast(nil, size, root, false))
}

// bcast is the shared binomial-tree walk. When carry is true, buf holds the
// payload (root) or receives it (others); when false only sizes move.
//
// A non-root rank forwards the message it received: a copy to every child
// but the last — the mask-1 child, whenever there is a child at all — which
// gets the message itself. So the subtree below a rank sees exactly what
// the root sent, whatever buf this rank passed, and a rank whose buf is too
// short reports the truncation only once its subtree has been served.
func (c *Comm) bcast(buf []byte, size, root int, carry bool) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	ctx := c.collCtx()
	vrank := (c.rank - root + n) % n

	var in *message // what this rank received; the root receives nothing
	var truncErr error
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (c.rank - mask + n) % n
			var err error
			if in, err = c.recvMsgOn(ctx, src, tagBcast); err != nil {
				return err
			}
			if carry {
				_, truncErr = in.read(buf)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask >= n {
			continue
		}
		var out *message
		switch {
		case in != nil && mask == 1:
			out, in = in, nil // the last child: move, don't copy
		case in != nil:
			out = in.clone()
		case carry:
			out = cloneMsg(buf)
		default:
			out = ownedMsg(nil, size)
		}
		if err := c.sendMsgOn(ctx, (c.rank+mask)%n, tagBcast, out); err != nil {
			if in != nil {
				in.release()
			}
			return err
		}
	}
	if in != nil {
		in.release() // a leaf
	}
	return truncErr
}

// Reduce combines every member's send buffer elementwise with op and
// leaves the result in root's recv buffer. It uses an in-order binary tree
// (children of virtual rank v are 2v+1 and 2v+2) — the algorithm of the
// paper's Fig. 5a. recv may be nil on non-root ranks.
func (c *Comm) Reduce(send, recv []byte, dt Datatype, op Op, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("reduce")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.reduceBinary(send, recv, len(send), dt, op, root, true))
}

// ReduceN is Reduce for a logical payload of size bytes (skeleton mode): the
// same binary-tree messages, no arithmetic.
func (c *Comm) ReduceN(size, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("reduce")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.reduceBinary(nil, nil, size, Byte, OpSum, root, false))
}

func (c *Comm) reduceBinary(send, recv []byte, size int, dt Datatype, op Op, root int, carry bool) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	vrank := (c.rank - root + n) % n
	children := make([]int, 0, 2)
	for child := 2*vrank + 1; child <= 2*vrank+2 && child < n; child++ {
		children = append(children, (child+root)%n)
	}
	parent := -1
	if vrank > 0 {
		parent = ((vrank-1)/2 + root) % n
	}
	return c.reduceUp(send, recv, size, dt, op, carry, children, parent)
}

// reduceUp is the data path both reduction trees share: fold the children's
// messages, in order, into this rank's contribution, then pass the result to
// parent — or leave it in recv on the root, which has parent < 0. The
// accumulator is the root's recv itself, into which send is copied first
// (recv may overlap send). Elsewhere it is a pooled message that travels on
// to the parent, whose fold recycles it: a leaf's is a clone of send, and an
// interior rank's is written whole by its first fold, op(send, child₀), so
// send is read once and never copied. Without carry only sizes move:
// buffers and payloads are nil, folds empty.
func (c *Comm) reduceUp(send, recv []byte, size int, dt Datatype, op Op, carry bool, children []int, parent int) error {
	if err := checkReduce("reduce", send, recv, parent < 0, dt, op); err != nil {
		return err
	}
	ctx := c.collCtx()
	acc, own := recv, recv // each fold writes acc = op(own, child)
	var up *message        // what the parent receives; the root sends nothing
	switch {
	case parent < 0:
		copy(recv, send)
	case !carry:
		up = ownedMsg(nil, size)
	case len(children) == 0:
		up = cloneMsg(send)
	default:
		up = getMsg(len(send), true)
		acc, own = up.data, send
	}
	for _, child := range children {
		if err := c.recvReduceOn(ctx, child, tagReduce, acc, own, dt, op); err != nil {
			if up != nil {
				up.release()
			}
			return err
		}
		own = acc
	}
	if up == nil {
		return nil
	}
	return c.sendMsgOn(ctx, parent, tagReduce, up)
}

// ReduceBinomial is Reduce with the binomial-tree algorithm, provided as an
// alternative for the collective-algorithm ablation.
func (c *Comm) ReduceBinomial(send, recv []byte, dt Datatype, op Op, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("reduce.binomial")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.reduceBinomial(send, recv, dt, op, root))
}

func (c *Comm) reduceBinomial(send, recv []byte, dt Datatype, op Op, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	vrank := (c.rank - root + n) % n
	// Children are vrank|mask for every mask below vrank's lowest set bit;
	// the parent clears that bit.
	children := make([]int, 0, 64)
	parent := -1
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent = (vrank&^mask + root) % n
			break
		}
		if child := vrank | mask; child < n {
			children = append(children, (child+root)%n)
		}
	}
	return c.reduceUp(send, recv, len(send), dt, op, true, children, parent)
}

// Allreduce reduces to rank 0 and broadcasts the result; every member's
// recv buffer receives the combined value.
func (c *Comm) Allreduce(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allreduce")()
	c.p.beginInternal()
	defer c.p.endInternal()
	if err := checkReduce("allreduce", send, recv, true, dt, op); err != nil {
		return c.herr(err)
	}
	if err := c.reduceBinary(send, recv, len(send), dt, op, 0, true); err != nil {
		return c.herr(err)
	}
	return c.herr(c.bcast(recv, len(recv), 0, true))
}

// Gather collects every member's equally-sized send buffer into root's recv
// buffer, ordered by rank (linear algorithm). recv must be nil on non-root
// ranks and len(send)*Size() bytes on root.
func (c *Comm) Gather(send, recv []byte, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("gather")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.gather(send, recv, root))
}

func (c *Comm) gather(send, recv []byte, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	blk := len(send)
	if c.rank != root {
		return c.sendCopyOn(ctx, root, tagGather, send)
	}
	if len(recv) != n*blk {
		return fmt.Errorf("mpi: gather root recv buffer has %d bytes, want %d", len(recv), n*blk)
	}
	copy(recv[root*blk:], send)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		if _, err := c.recvOn(ctx, i, tagGather, recv[i*blk:(i+1)*blk]); err != nil {
			return err
		}
	}
	return nil
}

// GatherN is Gather with logical sizes only.
func (c *Comm) GatherN(size, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("gather")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.gatherN(size, root))
}

func (c *Comm) gatherN(size, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	if c.rank != root {
		return c.sendOn(ctx, root, tagGather, nil, size)
	}
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		if _, err := c.recvOn(ctx, i, tagGather, nil); err != nil {
			return err
		}
	}
	return nil
}

// Allgather concatenates every member's equally-sized send buffer into each
// member's recv buffer, ordered by rank. It uses the ring algorithm: n-1
// neighbour exchanges, each of one block.
func (c *Comm) Allgather(send, recv []byte) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allgather")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allgather(send, recv))
}

func (c *Comm) allgather(send, recv []byte) error {
	n := len(c.group)
	blk := len(send)
	if len(recv) != n*blk {
		return fmt.Errorf("mpi: allgather recv buffer has %d bytes, want %d", len(recv), n*blk)
	}
	copy(recv[c.rank*blk:], send)
	if n == 1 {
		return nil
	}
	ctx := c.collCtx()
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	// Round s sends block rank-s and receives block rank-s-1, which round
	// s+1 sends on: the message received is forwarded as it is, so only
	// this rank's own block is ever copied into a message.
	out := cloneMsg(recv[c.rank*blk : (c.rank+1)*blk])
	for s := 0; s < n-1; s++ {
		if err := c.sendMsgOn(ctx, right, tagAllgat+s, out); err != nil {
			return err
		}
		in, err := c.recvMsgOn(ctx, left, tagAllgat+s)
		if err != nil {
			return err
		}
		recvBlk := (c.rank - s - 1 + n) % n
		if _, err := in.read(recv[recvBlk*blk : (recvBlk+1)*blk]); err != nil {
			in.release()
			return err
		}
		out = in
	}
	out.release()
	return nil
}

// AllgatherN is Allgather with a logical per-member block of size bytes.
func (c *Comm) AllgatherN(size int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allgather")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allgatherN(size))
}

func (c *Comm) allgatherN(size int) error {
	n := len(c.group)
	if n == 1 {
		return nil
	}
	ctx := c.collCtx()
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		if err := c.sendOn(ctx, right, tagAllgat+s, nil, size); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, left, tagAllgat+s, nil); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes root's recv-sized blocks to every member (linear
// algorithm): member i receives send[i*blk:(i+1)*blk] into recv. send is
// read on root only.
func (c *Comm) Scatter(send, recv []byte, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("scatter")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.scatter(send, recv, root))
}

func (c *Comm) scatter(send, recv []byte, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	blk := len(recv)
	if c.rank == root {
		if len(send) != n*blk {
			return fmt.Errorf("mpi: scatter root send buffer has %d bytes, want %d", len(send), n*blk)
		}
		for i := 0; i < n; i++ {
			if i == root {
				copy(recv, send[i*blk:(i+1)*blk])
				continue
			}
			if err := c.sendCopyOn(ctx, i, tagScatter, send[i*blk:(i+1)*blk]); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := c.recvOn(ctx, root, tagScatter, recv)
	return err
}

// Alltoall exchanges equally-sized blocks between all pairs: member j
// receives send[j*blk:(j+1)*blk] of member i at recv[i*blk:(i+1)*blk].
// Pairwise-exchange algorithm, n-1 rounds.
func (c *Comm) Alltoall(send, recv []byte) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("alltoall")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.alltoall(send, recv))
}

func (c *Comm) alltoall(send, recv []byte) error {
	n := len(c.group)
	if len(send)%n != 0 || len(recv) != len(send) {
		return fmt.Errorf("mpi: alltoall buffers must be equal multiples of the group size (send %d, recv %d, n %d)", len(send), len(recv), n)
	}
	blk := len(send) / n
	ctx := c.collCtx()
	copy(recv[c.rank*blk:(c.rank+1)*blk], send[c.rank*blk:(c.rank+1)*blk])
	for s := 1; s < n; s++ {
		dst := (c.rank + s) % n
		src := (c.rank - s + n) % n
		if err := c.sendCopyOn(ctx, dst, tagAlltoal+s, send[dst*blk:(dst+1)*blk]); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, src, tagAlltoal+s, recv[src*blk:(src+1)*blk]); err != nil {
			return err
		}
	}
	return nil
}
