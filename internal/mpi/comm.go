package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Comm is a communicator handle as seen by one process: an ordered group of
// world ranks sharing a context id, plus this process's rank within it.
// Handles are per-process; the collective operations of the runtime must be
// called by every member, in matching order, exactly as in MPI. A handle
// must be used from its owning rank goroutine only (communicators are not
// goroutine-safe, matching MPI's threading rules for a communicator).
type Comm struct {
	p        *Proc
	ctx      int
	group    []int // comm rank -> world rank
	rank     int
	splitSeq int // number of Split/Dup calls issued through this handle

	// Fault-tolerance state (ulfm.go / errors.go).
	shrinkSeq int        // Shrink attempts issued through this handle
	agreeSeq  int        // Agree calls issued through this handle
	errh      ErrHandler // per-communicator error handler, may be nil
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Proc returns the calling process.
func (c *Comm) Proc() *Proc { return c.p }

// World returns the enclosing world.
func (c *Comm) World() *World { return c.p.world }

// Group returns a copy of the comm-rank-to-world-rank mapping.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// WorldRank translates a rank of this communicator to a world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// Context returns the communicator's context id (unique per communicator
// within a world; COMM_WORLD is context 0).
func (c *Comm) Context() int { return c.ctx }

func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, r, len(c.group))
	}
	return nil
}

// Split partitions the communicator: processes passing the same color end
// up in the same new communicator, ranked by (key, old rank). A negative
// color (MPI_UNDEFINED) yields a nil communicator for that caller. Split is
// collective over c.
func (c *Comm) Split(color, key int) (*Comm, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("comm.split")()

	n := len(c.group)
	// Exchange (color, key) pairs; library-internal traffic.
	send := make([]byte, 16)
	binary.LittleEndian.PutUint64(send[0:8], uint64(int64(color)))
	binary.LittleEndian.PutUint64(send[8:16], uint64(int64(key)))
	all := make([]byte, 16*n)
	c.p.beginInternal()
	err := c.allgather(send, all)
	c.p.endInternal()
	if err != nil {
		return nil, c.herr(err)
	}

	type member struct{ color, key, rank int }
	members := make([]member, n)
	for i := 0; i < n; i++ {
		members[i] = member{
			color: int(int64(binary.LittleEndian.Uint64(all[16*i : 16*i+8]))),
			key:   int(int64(binary.LittleEndian.Uint64(all[16*i+8 : 16*i+16]))),
			rank:  i,
		}
	}
	seq := c.splitSeq
	c.splitSeq++
	if color < 0 {
		return nil, nil
	}
	var mine []member
	for _, m := range members {
		if m.color == color {
			mine = append(mine, m)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	myRank := -1
	for i, m := range mine {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	ctx := c.p.world.splitCtx(c.ctx, seq, color)
	return &Comm{p: c.p, ctx: ctx, group: group, rank: myRank, errh: c.errh}, nil
}

// Dup duplicates the communicator (same group, fresh context). Collective.
func (c *Comm) Dup() (*Comm, error) {
	return c.Split(0, c.rank)
}

// Translate returns, for each member of this communicator, its rank in
// other, or -1 when it is not a member. Purely local.
func (c *Comm) Translate(other *Comm) []int {
	worldToOther := make(map[int]int, len(other.group))
	for r, wr := range other.group {
		worldToOther[wr] = r
	}
	out := make([]int, len(c.group))
	for r, wr := range c.group {
		if o, ok := worldToOther[wr]; ok {
			out[r] = o
		} else {
			out[r] = -1
		}
	}
	return out
}

// CreateSub builds a communicator containing exactly the given ranks of c
// (MPI_Comm_create with an explicit group): members get a communicator
// ranked by their position in ranks; non-members get nil. Collective over
// c; every member must pass the same ranks.
func (c *Comm) CreateSub(ranks []int) (*Comm, error) {
	seen := make(map[int]bool, len(ranks))
	myIdx := -1
	for i, r := range ranks {
		if err := c.checkRank(r, "group member"); err != nil {
			return nil, err
		}
		if seen[r] {
			return nil, fmt.Errorf("mpi: duplicate rank %d in group", r)
		}
		seen[r] = true
		if r == c.rank {
			myIdx = i
		}
	}
	// Implemented over Split: color by membership, key by position so
	// the new ranks follow the given order.
	color := 0
	key := 0
	if myIdx < 0 {
		color = -1
	} else {
		key = myIdx
	}
	return c.Split(color, key)
}

// GroupRanksByNode returns the ranks of the communicator grouped by the
// compute node their process runs on, each group ascending, groups ordered
// by node id — a convenience for building per-node subcommunicators
// (MPI_Comm_split_type(COMM_TYPE_SHARED) in spirit).
func (c *Comm) GroupRanksByNode() [][]int {
	topo := c.World().Machine().Topo
	place := c.World().Placement()
	byNode := make(map[int][]int)
	for r := 0; r < c.Size(); r++ {
		node := topo.NodeOf(place[c.WorldRank(r)])
		byNode[node] = append(byNode[node], r)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([][]int, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, byNode[n])
	}
	return out
}

// SplitByNode returns a communicator of the ranks sharing this process's
// compute node (the shared-memory domain). Collective over c.
func (c *Comm) SplitByNode() (*Comm, error) {
	topo := c.World().Machine().Topo
	node := topo.NodeOf(c.p.Core())
	return c.Split(node, c.rank)
}
