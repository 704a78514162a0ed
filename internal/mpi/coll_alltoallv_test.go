package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestAlltoallv(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		me := c.Rank()
		// Rank i sends j+1 bytes of value 10*i+j to rank j.
		scounts := make([]int, np)
		sdispls := make([]int, np)
		total := 0
		for j := 0; j < np; j++ {
			scounts[j] = j + 1
			sdispls[j] = total
			total += j + 1
		}
		send := make([]byte, total)
		for j := 0; j < np; j++ {
			for k := 0; k < scounts[j]; k++ {
				send[sdispls[j]+k] = byte(10*me + j)
			}
		}
		// Everyone receives me+1 bytes from each rank.
		rcounts := make([]int, np)
		rdispls := make([]int, np)
		rtotal := 0
		for j := 0; j < np; j++ {
			rcounts[j] = me + 1
			rdispls[j] = rtotal
			rtotal += me + 1
		}
		recv := make([]byte, rtotal)
		if err := c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
			return err
		}
		for j := 0; j < np; j++ {
			for k := 0; k < rcounts[j]; k++ {
				if got := recv[rdispls[j]+k]; got != byte(10*j+me) {
					return fmt.Errorf("rank %d block from %d = %d, want %d", me, j, got, 10*j+me)
				}
			}
		}
		return nil
	})
}

func TestAlltoallvValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		two := []int{1, 1}
		zeroes := []int{0, 0}
		if err := c.Alltoallv(nil, []int{1}, zeroes, nil, two, zeroes); err == nil {
			return errors.New("short scounts should fail")
		}
		if err := c.Alltoallv(make([]byte, 1), two, []int{0, 5}, make([]byte, 2), two, []int{0, 1}); err == nil {
			return errors.New("out-of-range send block should fail")
		}
		return nil
	})
}

// TestAlltoallvArgErrorDeterministic: with two slices of the wrong length,
// the error names the first of them in argument order, on every run.
func TestAlltoallvArgErrorDeterministic(t *testing.T) {
	const np = 3
	want := "mpi: alltoallv sdispls has 2 entries for 3 ranks"
	for i := 0; i < 40; i++ {
		w := newTestWorld(t, np, WithEngine(EngineEvent))
		errs := make([]error, np)
		w.Run(func(c *Comm) error {
			buf := make([]byte, 3)
			errs[c.Rank()] = c.Alltoallv(buf, []int{1, 1, 1}, []int{0, 1}, buf, []int{1, 1}, []int{0, 1, 2})
			return errs[c.Rank()]
		})
		for r, err := range errs {
			if err == nil || err.Error() != want {
				t.Fatalf("run %d rank %d: %v, want %q", i, r, err, want)
			}
		}
	}
}
