package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestBcastSAG(t *testing.T) {
	for _, np := range []int{2, 4, 8} {
		for root := 0; root < np; root += 3 {
			w := newTestWorld(t, np)
			run(t, w, func(c *Comm) error {
				buf := make([]byte, np*8)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(i ^ root)
					}
				}
				if err := c.BcastSAG(buf, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i^root) {
						return fmt.Errorf("np=%d root=%d rank=%d byte %d = %d", np, root, c.Rank(), i, buf[i])
					}
				}
				return nil
			})
		}
	}
}

func TestBcastSAGMatchesBcastContent(t *testing.T) {
	const np = 8
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		a := make([]byte, 64)
		bb := make([]byte, 64)
		if c.Rank() == 2 {
			for i := range a {
				a[i] = byte(3 * i)
				bb[i] = byte(3 * i)
			}
		}
		if err := c.Bcast(a, 2); err != nil {
			return err
		}
		if err := c.BcastSAG(bb, 2); err != nil {
			return err
		}
		if !bytes.Equal(a, bb) {
			return fmt.Errorf("SAG and binomial bcast disagree on rank %d", c.Rank())
		}
		return nil
	})
}

func TestBcastSAGValidation(t *testing.T) {
	w := newTestWorld(t, 3)
	run(t, w, func(c *Comm) error {
		if err := c.BcastSAG(make([]byte, 7), 0); err == nil {
			return errors.New("indivisible buffer should fail")
		}
		return nil
	})
}

func TestAllgatherRDMatchesRing(t *testing.T) {
	for _, np := range []int{2, 4, 8} {
		w := newTestWorld(t, np)
		run(t, w, func(c *Comm) error {
			send := []byte{byte(50 + c.Rank()), byte(c.Rank())}
			r1 := make([]byte, np*2)
			r2 := make([]byte, np*2)
			if err := c.Allgather(send, r1); err != nil {
				return err
			}
			if err := c.AllgatherRD(send, r2); err != nil {
				return err
			}
			if !bytes.Equal(r1, r2) {
				return fmt.Errorf("np=%d rank=%d: RD %v vs ring %v", np, c.Rank(), r2, r1)
			}
			return nil
		})
	}
}

func TestAllgatherRDFallsBackForOddSizes(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := []byte{byte(c.Rank())}
		recv := make([]byte, np)
		if err := c.AllgatherRD(send, recv); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != byte(i) {
				return fmt.Errorf("fallback allgather wrong: %v", recv)
			}
		}
		return nil
	})
}

func TestBcastSAGNonPowerOfTwo(t *testing.T) {
	for _, np := range []int{3, 5, 6, 7} {
		for root := 0; root < np; root += 2 {
			w := newTestWorld(t, np)
			run(t, w, func(c *Comm) error {
				buf := make([]byte, np*4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(i ^ (root + 1))
					}
				}
				if err := c.BcastSAG(buf, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i^(root+1)) {
						return fmt.Errorf("np=%d root=%d rank=%d byte %d = %d", np, root, c.Rank(), i, buf[i])
					}
				}
				return nil
			})
		}
	}
}

// AllgatherRD's non-power-of-two fallback must still account the call as
// its own span and MPI time (the satellite audit's divergence).
func TestAllgatherRDFallbackAccountsMPITime(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := []byte{byte(c.Rank())}
		recv := make([]byte, np)
		if err := c.AllgatherRD(send, recv); err != nil {
			return err
		}
		if c.Proc().MPITime() <= 0 {
			return fmt.Errorf("rank %d: fallback allgather.rd not accounted as MPI time", c.Rank())
		}
		return nil
	})
}
