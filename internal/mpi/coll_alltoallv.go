package mpi

import (
	"fmt"
)

// Alltoallv exchanges variable-length blocks between all pairs: rank i
// sends send[sdispls[j]:sdispls[j]+scounts[j]] to rank j and receives rank
// j's block for it at recv[rdispls[j]:rdispls[j]+rcounts[j]]. All four
// count/displacement slices are per-rank local arguments, as in MPI.
func (c *Comm) Alltoallv(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("alltoallv")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.alltoallv(send, scounts, sdispls, recv, rcounts, rdispls))
}

// checkAlltoallvArgs validates the four count/displacement slices against
// the buffers; shared by the pairwise and Bruck algorithms.
func (c *Comm) checkAlltoallvArgs(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	n := len(c.group)
	for name, s := range map[string][]int{"scounts": scounts, "sdispls": sdispls, "rcounts": rcounts, "rdispls": rdispls} {
		if len(s) != n {
			return fmt.Errorf("mpi: alltoallv %s has %d entries for %d ranks", name, len(s), n)
		}
	}
	for j := 0; j < n; j++ {
		if sdispls[j] < 0 || scounts[j] < 0 || sdispls[j]+scounts[j] > len(send) {
			return fmt.Errorf("mpi: alltoallv send block %d [%d,%d) outside buffer of %d bytes", j, sdispls[j], sdispls[j]+scounts[j], len(send))
		}
		if rdispls[j] < 0 || rcounts[j] < 0 || rdispls[j]+rcounts[j] > len(recv) {
			return fmt.Errorf("mpi: alltoallv recv block %d [%d,%d) outside buffer of %d bytes", j, rdispls[j], rdispls[j]+rcounts[j], len(recv))
		}
	}
	return nil
}

func (c *Comm) alltoallv(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	n := len(c.group)
	if err := c.checkAlltoallvArgs(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	ctx := c.collCtx()
	copy(recv[rdispls[c.rank]:rdispls[c.rank]+rcounts[c.rank]], send[sdispls[c.rank]:sdispls[c.rank]+scounts[c.rank]])
	for s := 1; s < n; s++ {
		dst := (c.rank + s) % n
		src := (c.rank - s + n) % n
		if err := c.sendCopyOn(ctx, dst, tagAlltoallv+s, send[sdispls[dst]:sdispls[dst]+scounts[dst]]); err != nil {
			return err
		}
		st, err := c.recvOn(ctx, src, tagAlltoallv+s, recv[rdispls[src]:rdispls[src]+rcounts[src]])
		if err != nil {
			return err
		}
		if st.Size != rcounts[src] {
			return fmt.Errorf("mpi: alltoallv rank %d sent %d bytes, expected %d", src, st.Size, rcounts[src])
		}
	}
	return nil
}
