package mpi

import (
	"fmt"
)

// Alltoallv exchanges variable-length blocks between all pairs: rank i
// sends send[sdispls[j]:sdispls[j]+scounts[j]] to rank j and receives rank
// j's block for it at recv[rdispls[j]:rdispls[j]+rcounts[j]] (pairwise
// exchange). All four count/displacement slices are per-rank local
// arguments, as in MPI.
func (c *Comm) Alltoallv(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	k := c.sched(send, recv, 0).fail(c.checkAlltoallvArgs(send, scounts, sdispls, recv, rcounts, rdispls))
	k.sl = layout{kind: lCounts, counts: scounts, displs: sdispls}
	k.rl = layout{kind: lCounts, counts: rcounts, displs: rdispls}
	return c.run("alltoallv", k.then(phCopy, 0, 0).then(phPairwise, 0, tagAlltoallv))
}

// checkAlltoallvArgs validates the four count/displacement slices against
// the buffers, in argument order; shared by the pairwise and Bruck
// algorithms.
func (c *Comm) checkAlltoallvArgs(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	n := len(c.group)
	for i, s := range [...][]int{scounts, sdispls, rcounts, rdispls} {
		if len(s) != n {
			name := [...]string{"scounts", "sdispls", "rcounts", "rdispls"}[i]
			return fmt.Errorf("mpi: alltoallv %s has %d entries for %d ranks", name, len(s), n)
		}
	}
	if err := checkBlocks("alltoallv", n, scounts, sdispls, len(send), "send"); err != nil {
		return err
	}
	return checkBlocks("alltoallv", n, rcounts, rdispls, len(recv), "recv")
}
