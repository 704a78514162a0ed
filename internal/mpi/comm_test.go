package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	const np = 6
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("subcomm size %d, want 3", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("world rank %d got subrank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// The group must contain the matching world ranks in order.
		for i, wr := range sub.Group() {
			if wr != 2*i+c.Rank()%2 {
				return fmt.Errorf("group %v for parity %d", sub.Group(), c.Rank()%2)
			}
		}
		// Communication inside the subcomm works and is isolated.
		buf := []byte{byte(sub.Rank())}
		if err := sub.Bcast(buf, 0); err != nil {
			return err
		}
		if buf[0] != 0 {
			return fmt.Errorf("subcomm bcast corrupted: %v", buf)
		}
		return nil
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		// Reverse ranks via the key.
		sub, err := c.Split(0, np-c.Rank())
		if err != nil {
			return err
		}
		if want := np - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("world rank %d became %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return errors.New("undefined color should yield a nil communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("subcomm size %d, want 3", sub.Size())
		}
		return sub.Barrier()
	})
}

func TestSequentialSplitsGetDistinctContexts(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		a, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		b, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if a.Context() == b.Context() {
			return errors.New("two splits share a context")
		}
		// Messages on a must not match receives on b.
		if c.Rank() == 0 {
			if err := a.Send(1, 1, []byte{0xA}); err != nil {
				return err
			}
			return b.Send(1, 1, []byte{0xB})
		}
		buf := make([]byte, 1)
		if _, err := b.Recv(0, 1, buf); err != nil {
			return err
		}
		if buf[0] != 0xB {
			return fmt.Errorf("comm b received %x, want 0xB", buf[0])
		}
		if _, err := a.Recv(0, 1, buf); err != nil {
			return err
		}
		if buf[0] != 0xA {
			return fmt.Errorf("comm a received %x, want 0xA", buf[0])
		}
		return nil
	})
}

func TestDup(t *testing.T) {
	w := newTestWorld(t, 3)
	run(t, w, func(c *Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			return fmt.Errorf("dup changed shape: %d/%d", d.Rank(), d.Size())
		}
		if d.Context() == c.Context() {
			return errors.New("dup shares the parent context")
		}
		return d.Barrier()
	})
}

func TestNestedSplit(t *testing.T) {
	const np = 8
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("nested split size %d, want 2", quarter.Size())
		}
		// Allreduce over the pair: sum of the two world ranks.
		send := EncodeInts([]int{c.Rank()})
		recv := make([]byte, len(send))
		if err := quarter.Allreduce(send, recv, Int64, OpSum); err != nil {
			return err
		}
		base := (c.Rank() / 2) * 2
		if got := DecodeInts(recv)[0]; got != base+base+1 {
			return fmt.Errorf("pair sum %d, want %d", got, 2*base+1)
		}
		return nil
	})
}

func TestTranslate(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		even, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		tr := c.Translate(even)
		for wr := 0; wr < np; wr++ {
			if wr%2 == c.Rank()%2 {
				if tr[wr] != wr/2 {
					return fmt.Errorf("translate[%d] = %d, want %d", wr, tr[wr], wr/2)
				}
			} else if tr[wr] != -1 {
				return fmt.Errorf("translate[%d] = %d, want -1 (not a member)", wr, tr[wr])
			}
		}
		return nil
	})
}

func TestCrossCommunicatorTrafficStillMonitoredPerWorldRank(t *testing.T) {
	// The paper's semantics: a session on a communicator sees traffic
	// between its members even on other communicators. That works
	// because pml counters are per world rank; verify that here.
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// World ranks 0 and 2 are subranks 0 and 1 of the even comm.
		if c.Rank() == 0 {
			if err := sub.Send(1, 0, make([]byte, 64)); err != nil { // to world rank 2
				return err
			}
		}
		if c.Rank() == 2 {
			if _, err := sub.Recv(0, 0, nil); err != nil {
				return err
			}
		}
		return nil
	})
	bytes := make([]uint64, np)
	w.Proc(0).Monitor().Bytes(0 /* pml.P2P */, bytes)
	if bytes[2] != 64 {
		t.Fatalf("world-rank accounting lost subcomm traffic: %v", bytes)
	}
}

func TestCreateSub(t *testing.T) {
	const np = 6
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		// Members in a deliberate non-ascending order: ranks get the
		// positions in the list.
		group := []int{4, 1, 3}
		sub, err := c.CreateSub(group)
		if err != nil {
			return err
		}
		member := c.Rank() == 4 || c.Rank() == 1 || c.Rank() == 3
		if !member {
			if sub != nil {
				return errors.New("non-member got a communicator")
			}
			return nil
		}
		want := map[int]int{4: 0, 1: 1, 3: 2}[c.Rank()]
		if sub.Rank() != want {
			return fmt.Errorf("world rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		return sub.Barrier()
	})
}

func TestCreateSubValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if _, err := c.CreateSub([]int{0, 0}); err == nil {
			return errors.New("duplicate member should fail")
		}
		if _, err := c.CreateSub([]int{7}); err == nil {
			return errors.New("out-of-range member should fail")
		}
		return nil
	})
}

func TestSplitByNode(t *testing.T) {
	// Default packed placement on a 2x2x2 machine: ranks 0-3 on node 0,
	// 4-7 on node 1.
	const np = 8
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		sub, err := c.SplitByNode()
		if err != nil {
			return err
		}
		if sub.Size() != 4 {
			return fmt.Errorf("node comm size %d, want 4", sub.Size())
		}
		wantFirst := (c.Rank() / 4) * 4
		if sub.WorldRank(0) != wantFirst {
			return fmt.Errorf("node comm starts at world rank %d, want %d", sub.WorldRank(0), wantFirst)
		}
		return sub.Barrier()
	})
}

func TestGroupRanksByNode(t *testing.T) {
	const np = 8
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		groups := c.GroupRanksByNode()
		if len(groups) != 2 {
			return fmt.Errorf("%d node groups, want 2", len(groups))
		}
		for g, members := range groups {
			for i, r := range members {
				if r != g*4+i {
					return fmt.Errorf("groups = %v", groups)
				}
			}
		}
		return nil
	})
}
