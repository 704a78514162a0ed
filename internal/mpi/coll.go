package mpi

// The collectives. Like Open MPI's tuned collective component, the runtime
// offers several algorithms per operation: the defaults are the ones the
// paper's experiments name (binomial bcast, binary-tree reduce, ring
// allgather), the others are the portfolio internal/coll tunes over. Each
// is a schedule (coll_sched.go) that decomposes into point-to-point
// messages on the collective context, so the monitoring component sees
// every algorithm's real traffic pattern.

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

// Barrier blocks until every member of the communicator has entered it. It
// uses the dissemination algorithm: ceil(log2 n) rounds of zero-byte
// point-to-point messages — the zero-length internal messages the paper
// notes collectives may generate.
func (c *Comm) Barrier() error { return c.run("barrier", c.barrier()) }

func (c *Comm) barrier() *sched { return c.skeleton(0).then(phBarrier, 0, tagBarrier) }

// Bcast broadcasts root's buf to every member using a binomial tree; on
// non-root ranks buf receives the data. A non-root rank forwards the
// message it received, so its subtree sees exactly what the root sent, and
// a rank whose buf is too short reports the truncation only once its
// subtree has been served. Collective over c.
func (c *Comm) Bcast(buf []byte, root int) error {
	return c.run("bcast", c.sched(buf, buf, len(buf)).rooted(root).then(phBcast, root, tagBcast))
}

// BcastN is Bcast for a logical payload of size bytes with no data movement
// (skeleton workloads); it sends the exact same tree messages.
func (c *Comm) BcastN(size, root int) error {
	if err := checkSize(size); err != nil {
		return c.herr(err)
	}
	return c.run("bcast", c.skeleton(size).rooted(root).then(phBcast, root, tagBcast))
}

// Reduce combines every member's send buffer elementwise with op and
// leaves the result in root's recv buffer. It uses an in-order binary tree
// (children of virtual rank v are 2v+1 and 2v+2) — the algorithm of the
// paper's Fig. 5a. recv may be nil on non-root ranks. A non-root rank with
// children folds them into a pooled message that travels on to its parent.
func (c *Comm) Reduce(send, recv []byte, dt Datatype, op Op, root int) error {
	return c.run("reduce", c.reduce(send, recv, dt, op, root, phReduce))
}

// ReduceN is Reduce for a logical payload of size bytes (skeleton mode): the
// same binary-tree messages, no arithmetic.
func (c *Comm) ReduceN(size, root int) error {
	if err := checkSize(size); err != nil {
		return c.herr(err)
	}
	return c.run("reduce", c.skeleton(size).rooted(root).then(phReduce, root, tagReduce))
}

// ReduceBinomial is Reduce with the binomial-tree algorithm, provided as an
// alternative for the collective-algorithm ablation.
func (c *Comm) ReduceBinomial(send, recv []byte, dt Datatype, op Op, root int) error {
	return c.run("reduce.binomial", c.reduce(send, recv, dt, op, root, phReduceBinomial))
}

func (c *Comm) reduce(send, recv []byte, dt Datatype, op Op, root int, tree phaseKind) *sched {
	k := c.sched(send, recv, len(send)).rooted(root).fail(checkReduce("reduce", send, recv, c.rank == root, dt, op))
	k.dt, k.op = dt, op
	return k.then(tree, root, tagReduce)
}

// folding starts the schedule of a reduction whose send and recv are
// significant on every rank.
func (c *Comm) folding(what string, send, recv []byte, dt Datatype, op Op) *sched {
	k := c.sched(send, recv, len(send)).fail(checkReduce(what, send, recv, true, dt, op))
	k.dt, k.op = dt, op
	return k
}

// Allreduce reduces to rank 0 and broadcasts the result; every member's
// recv buffer receives the combined value.
func (c *Comm) Allreduce(send, recv []byte, dt Datatype, op Op) error {
	k := c.folding("allreduce", send, recv, dt, op)
	return c.run("allreduce", k.then(phReduce, 0, tagReduce).then(phBcast, 0, tagBcast))
}

// AllreduceRD performs an allreduce with the recursive-doubling algorithm:
// log2(n) rounds of pairwise exchange-and-combine. For non-power-of-two
// groups the standard pre/post folding steps are applied. It is
// latency-optimal for short vectors, whereas Allreduce (reduce+bcast) moves
// less data at the root for long ones.
func (c *Comm) AllreduceRD(send, recv []byte, dt Datatype, op Op) error {
	return c.run("allreduce.rd", c.folding("allreduce", send, recv, dt, op).then(phAllreduceRD, 0, tagRsct))
}

// AllreduceRing performs an allreduce with the ring (reduce-scatter +
// allgather) algorithm: 2(n-1) neighbour exchanges of one n-th of the
// vector each. Every rank sends 2·(n-1)/n of the buffer in total, the
// bandwidth-optimal volume, at the price of a latency term linear in n —
// the classic choice for long vectors on large groups. Works for any
// group size; blocks are balanced element ranges (possibly empty).
func (c *Comm) AllreduceRing(send, recv []byte, dt Datatype, op Op) error {
	k := c.folding("allreduce", send, recv, dt, op)
	k.rl = layout{kind: lBalanced}
	// After the reduce-scatter rank r holds block r+1 complete, which the
	// allgather's round 0 sends.
	return c.run("allreduce.ring", k.then(phRingFold, 0, tagRing).then(phRing, k.n-1, tagRing+k.n))
}

// AllreduceRab performs an allreduce with Rabenseifner's algorithm: a
// reduce-scatter by recursive vector halving, then an allgather by
// recursive doubling — log2(n) rounds each, moving 2·(n-1)/n of the buffer
// per rank like the ring but with a logarithmic latency term. Non-power-
// of-two groups apply the standard pre/post folding steps (as AllreduceRD
// does), so any group size works.
func (c *Comm) AllreduceRab(send, recv []byte, dt Datatype, op Op) error {
	return c.run("allreduce.rab", c.folding("allreduce", send, recv, dt, op).then(phRab, 0, tagRab))
}

// ReduceScatterBlock reduces elementwise across the group and leaves block
// i of the result (len(send)/n bytes) on rank i, using n-1 pairwise
// exchange rounds. send must be a multiple of n times the element size;
// recv receives one block and, being the accumulator, must not overlap send.
func (c *Comm) ReduceScatterBlock(send, recv []byte, dt Datatype, op Op) error {
	n := len(c.group)
	blk := len(send) / n
	k := c.sched(send, recv, blk)
	if len(send)%n != 0 {
		k.fail(fmt.Errorf("mpi: reduce-scatter buffer of %d bytes is not divisible by %d ranks", len(send), n))
	}
	k.fail(checkReduce("reduce-scatter block", send[c.rank*blk:(c.rank+1)*blk], recv, true, dt, op))
	k.dt, k.op, k.sl = dt, op, layout{kind: lUniform, blk: blk}
	return c.run("reduce_scatter_block", k.then(phCopy, 0, 0).then(phPairFold, 0, tagRsct))
}

// Scan computes the inclusive prefix reduction: rank i's recv holds
// op(send_0, ..., send_i). Linear-chain algorithm.
func (c *Comm) Scan(send, recv []byte, dt Datatype, op Op) error {
	return c.run("scan", c.folding("scan", send, recv, dt, op).then(phScan, 0, tagScan))
}

// Exscan computes the exclusive prefix reduction: rank i's recv holds
// op(send_0, ..., send_{i-1}); rank 0's recv is left untouched, as in MPI.
func (c *Comm) Exscan(send, recv []byte, dt Datatype, op Op) error {
	return c.run("exscan", c.folding("exscan", send, recv, dt, op).then(phExscan, 0, tagScan))
}

// Gather collects every member's equally-sized send buffer into root's recv
// buffer, ordered by rank (linear algorithm). recv must be nil on non-root
// ranks and len(send)*Size() bytes on root.
func (c *Comm) Gather(send, recv []byte, root int) error {
	k := c.sched(send, recv, len(send))
	if c.rank == root && len(recv) != k.n*len(send) {
		k.fail(fmt.Errorf("mpi: gather root recv buffer has %d bytes, want %d", len(recv), k.n*len(send)))
	}
	return c.run("gather", k.gather(root))
}

// GatherN is Gather with logical sizes only.
func (c *Comm) GatherN(size, root int) error {
	if err := checkSize(size); err != nil {
		return c.herr(err)
	}
	return c.run("gather", c.skeleton(size).gather(root))
}

func (k *sched) gather(root int) *sched {
	k.rl = layout{kind: lUniform, blk: k.size}
	return k.rooted(root).then(phGather, root, tagGather)
}

// GatherStream collects every member's variable-length block at root,
// handing each block to deliver(src, block) in ascending source order
// instead of concatenating them: root's transient memory is bounded by the
// largest single block, not by the sum — the point of the chunked
// monitoring gathers on large worlds. The block is the received message's
// own payload, recycled once deliver returns; deliver must copy anything it
// keeps. deliver is called on root only (other ranks may pass nil), inside
// the collective, so it must not call MPI on the communicator; an error
// from it aborts the collective on root.
func (c *Comm) GatherStream(send []byte, root int, deliver func(src int, block []byte) error) error {
	k := c.sched(send, nil, len(send)).rooted(root)
	if c.rank == root {
		if deliver == nil {
			k.fail(fmt.Errorf("mpi: gatherstream root needs a deliver function"))
		}
		k.sink = deliver
	}
	return c.run("gatherstream", k.then(phGather, root, tagGast))
}

// Gatherv collects variable-length blocks at root: every rank contributes
// send, root receives rank i's data at recv[displs[i]:displs[i]+counts[i]].
// counts and displs are significant at root only.
func (c *Comm) Gatherv(send []byte, recv []byte, counts, displs []int, root int) error {
	k := c.sched(send, recv, len(send)).rooted(root)
	if c.rank == root {
		k.fail(checkBlocks("gatherv", k.n, counts, displs, len(recv), "recv"))
	}
	k.rl = layout{kind: lCounts, counts: counts, displs: displs}
	return c.run("gatherv", k.then(phGather, root, tagGathv))
}

// Scatter distributes root's recv-sized blocks to every member (linear
// algorithm): member i receives send[i*blk:(i+1)*blk] into recv. send is
// read on root only.
func (c *Comm) Scatter(send, recv []byte, root int) error {
	k := c.sched(send, recv, len(recv)).rooted(root)
	if c.rank == root && len(send) != k.n*len(recv) {
		k.fail(fmt.Errorf("mpi: scatter root send buffer has %d bytes, want %d", len(send), k.n*len(recv)))
	}
	k.sl = layout{kind: lUniform, blk: len(recv)}
	return c.run("scatter", k.then(phScatter, root, tagScatter))
}

// Scatterv distributes variable-length blocks from root: rank i receives
// send[displs[i]:displs[i]+counts[i]] into recv. counts and displs are
// significant at root only; recv must be counts[rank] bytes long. Root
// checks every block before it sends the first.
func (c *Comm) Scatterv(send []byte, counts, displs []int, recv []byte, root int) error {
	k := c.sched(send, recv, len(recv)).rooted(root)
	if c.rank == root {
		k.fail(checkBlocks("scatterv", k.n, counts, displs, len(send), "send"))
	}
	k.sl = layout{kind: lCounts, counts: counts, displs: displs}
	return c.run("scatterv", k.then(phScatter, root, tagGathv))
}

// checkBlocks validates the n count/displacement pairs of a v-collective
// against the buffer they index, without overflowing on any of them.
func checkBlocks(what string, n int, counts, displs []int, buflen int, buf string) error {
	if len(counts) != n || len(displs) != n {
		return fmt.Errorf("mpi: %s needs %d counts and displs, got %d/%d", what, n, len(counts), len(displs))
	}
	for i := range counts {
		if displs[i] < 0 || counts[i] < 0 || counts[i] > buflen-displs[i] {
			return fmt.Errorf("mpi: %s block %d (%d bytes at %d) outside %s buffer of %d bytes", what, i, counts[i], displs[i], buf, buflen)
		}
	}
	return nil
}

// Allgather concatenates every member's equally-sized send buffer into each
// member's recv buffer, ordered by rank. It uses the ring algorithm: n-1
// neighbour exchanges, each of one block, every block received forwarded
// as it came.
func (c *Comm) Allgather(send, recv []byte) error {
	return c.run("allgather", c.allgather(send, recv, phRing))
}

// AllgatherN is Allgather with a logical per-member block of size bytes.
func (c *Comm) AllgatherN(size int) error {
	if err := checkSize(size); err != nil {
		return c.herr(err)
	}
	return c.run("allgather", c.skeleton(size).allgather(phRing))
}

// AllgatherRD is the recursive-doubling allgather for power-of-two groups:
// log2(n) rounds exchanging doubling block ranges. Falls back to the ring
// algorithm otherwise (same accounting: the call is still bracketed by its
// own span and MPI-time window, so the fallback does not masquerade as a
// plain Allgather).
func (c *Comm) AllgatherRD(send, recv []byte) error {
	alg := phDoubling
	if n := len(c.group); n&(n-1) != 0 {
		alg = phRing
	}
	return c.run("allgather.rd", c.allgather(send, recv, alg))
}

func (c *Comm) allgather(send, recv []byte, alg phaseKind) *sched {
	k := c.sched(send, recv, len(send))
	if len(recv) != k.n*len(send) {
		k.fail(fmt.Errorf("mpi: allgather recv buffer has %d bytes, want %d", len(recv), k.n*len(send)))
	}
	return k.allgather(alg)
}

func (k *sched) allgather(alg phaseKind) *sched {
	k.rl = layout{kind: lUniform, blk: k.size}
	tag := tagAllgat
	if alg == phDoubling {
		tag += 1 << 10
	}
	return k.then(phCopy, 0, 0).then(alg, 0, tag)
}

// Allgatherv concatenates variable-length blocks from every member into
// each member's recv buffer: rank i's send lands at
// recv[displs[i]:displs[i]+counts[i]] everywhere (ring algorithm). counts
// and displs must be identical on all ranks, as in MPI.
func (c *Comm) Allgatherv(send []byte, recv []byte, counts, displs []int) error {
	k := c.sched(send, recv, len(send)).fail(checkBlocks("allgatherv", len(c.group), counts, displs, len(recv), "recv"))
	if k.err == nil && len(send) != counts[c.rank] {
		k.fail(fmt.Errorf("mpi: allgatherv rank %d sends %d bytes, counts says %d", c.rank, len(send), counts[c.rank]))
	}
	k.rl = layout{kind: lCounts, counts: counts, displs: displs}
	return c.run("allgatherv", k.then(phCopy, 0, 0).then(phRing, 0, tagAllgat+1<<12))
}

// BcastSAG broadcasts with the scatter-allgather (van de Geijn) algorithm,
// the usual choice for large buffers: the root scatters blocks binomially,
// then a ring allgather reassembles them everywhere. The buffer length must
// be divisible by the group size.
func (c *Comm) BcastSAG(buf []byte, root int) error {
	k := c.sched(buf, buf, len(buf)).rooted(root)
	if len(buf)%k.n != 0 {
		k.fail(fmt.Errorf("mpi: scatter-allgather bcast needs a buffer divisible by %d ranks, got %d bytes", k.n, len(buf)))
	}
	k.rl = layout{kind: lUniform, blk: len(buf) / k.n}
	return c.run("bcast.sag", k.then(phScatterTree, root, tagBsag).then(phRing, root, tagBsag+1))
}

// Alltoall exchanges equally-sized blocks between all pairs: member j
// receives send[j*blk:(j+1)*blk] of member i at recv[i*blk:(i+1)*blk].
// Pairwise-exchange algorithm, n-1 rounds.
func (c *Comm) Alltoall(send, recv []byte) error {
	k := c.sched(send, recv, len(send))
	if len(send)%k.n != 0 || len(recv) != len(send) {
		k.fail(fmt.Errorf("mpi: alltoall buffers must be equal multiples of the group size (send %d, recv %d, n %d)", len(send), len(recv), k.n))
	}
	k.sl = layout{kind: lUniform, blk: len(send) / k.n}
	k.rl = k.sl
	return c.run("alltoall", k.then(phCopy, 0, 0).then(phPairwise, 0, tagAlltoal))
}
