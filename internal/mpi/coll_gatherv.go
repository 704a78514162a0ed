package mpi

// The v-variants with per-rank block sizes: Gatherv, Scatterv and
// Allgatherv.

import (
	"fmt"
)

// Gatherv collects variable-length blocks at root: every rank contributes
// send, root receives rank i's data at recv[displs[i]:displs[i]+counts[i]].
// counts and displs are significant at root only.
func (c *Comm) Gatherv(send []byte, recv []byte, counts, displs []int, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("gatherv")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.gatherv(send, recv, counts, displs, root))
}

func (c *Comm) gatherv(send []byte, recv []byte, counts, displs []int, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	if c.rank != root {
		return c.sendCopyOn(ctx, root, tagGathv, send)
	}
	if len(counts) != n || len(displs) != n {
		return fmt.Errorf("mpi: gatherv needs %d counts and displs, got %d/%d", n, len(counts), len(displs))
	}
	for i := 0; i < n; i++ {
		if displs[i] < 0 || displs[i]+counts[i] > len(recv) {
			return fmt.Errorf("mpi: gatherv block %d [%d,%d) outside recv buffer of %d bytes", i, displs[i], displs[i]+counts[i], len(recv))
		}
	}
	copy(recv[displs[root]:displs[root]+counts[root]], send)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		st, err := c.recvOn(ctx, i, tagGathv, recv[displs[i]:displs[i]+counts[i]])
		if err != nil {
			return err
		}
		if st.Size != counts[i] {
			return fmt.Errorf("mpi: gatherv rank %d sent %d bytes, root expected %d", i, st.Size, counts[i])
		}
	}
	return nil
}

// Scatterv distributes variable-length blocks from root: rank i receives
// send[displs[i]:displs[i]+counts[i]] into recv. counts and displs are
// significant at root only; recv must be counts[rank] bytes long.
func (c *Comm) Scatterv(send []byte, counts, displs []int, recv []byte, root int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("scatterv")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.scatterv(send, counts, displs, recv, root))
}

func (c *Comm) scatterv(send []byte, counts, displs []int, recv []byte, root int) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	if c.rank != root {
		_, err := c.recvOn(ctx, root, tagGathv, recv)
		return err
	}
	if len(counts) != n || len(displs) != n {
		return fmt.Errorf("mpi: scatterv needs %d counts and displs, got %d/%d", n, len(counts), len(displs))
	}
	for i := 0; i < n; i++ {
		if displs[i] < 0 || displs[i]+counts[i] > len(send) {
			return fmt.Errorf("mpi: scatterv block %d [%d,%d) outside send buffer of %d bytes", i, displs[i], displs[i]+counts[i], len(send))
		}
		if i == root {
			copy(recv, send[displs[i]:displs[i]+counts[i]])
			continue
		}
		if err := c.sendCopyOn(ctx, i, tagGathv, send[displs[i]:displs[i]+counts[i]]); err != nil {
			return err
		}
	}
	return nil
}

// Allgatherv concatenates variable-length blocks from every member into
// each member's recv buffer: rank i's send lands at
// recv[displs[i]:displs[i]+counts[i]] everywhere. counts and displs must be
// identical on all ranks, as in MPI.
func (c *Comm) Allgatherv(send []byte, recv []byte, counts, displs []int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allgatherv")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allgatherv(send, recv, counts, displs))
}

func (c *Comm) allgatherv(send []byte, recv []byte, counts, displs []int) error {
	n := len(c.group)
	if len(counts) != n || len(displs) != n {
		return fmt.Errorf("mpi: allgatherv needs %d counts and displs, got %d/%d", n, len(counts), len(displs))
	}
	if len(send) != counts[c.rank] {
		return fmt.Errorf("mpi: allgatherv rank %d sends %d bytes, counts says %d", c.rank, len(send), counts[c.rank])
	}
	for i := 0; i < n; i++ {
		if displs[i] < 0 || counts[i] < 0 || displs[i]+counts[i] > len(recv) {
			return fmt.Errorf("mpi: allgatherv block %d [%d,%d) outside recv buffer of %d bytes", i, displs[i], displs[i]+counts[i], len(recv))
		}
	}
	ctx := c.collCtx()
	copy(recv[displs[c.rank]:displs[c.rank]+counts[c.rank]], send)
	if n == 1 {
		return nil
	}
	// Ring algorithm over variable blocks.
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendBlk := (c.rank - s + n) % n
		recvBlk := (c.rank - s - 1 + n) % n
		if err := c.sendCopyOn(ctx, right, tagAllgat+1<<12+s, recv[displs[sendBlk]:displs[sendBlk]+counts[sendBlk]]); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, left, tagAllgat+1<<12+s, recv[displs[recvBlk]:displs[recvBlk]+counts[recvBlk]]); err != nil {
			return err
		}
	}
	return nil
}
