package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestAllreduceRDMatchesAllreduce(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16} {
		w := newTestWorld(t, minInt(np, 8))
		np := w.Size()
		run(t, w, func(c *Comm) error {
			send := EncodeFloat64s([]float64{float64(c.Rank() + 1), -2, float64(c.Rank() * c.Rank())})
			r1 := make([]byte, len(send))
			r2 := make([]byte, len(send))
			if err := c.Allreduce(send, r1, Float64, OpSum); err != nil {
				return err
			}
			if err := c.AllreduceRD(send, r2, Float64, OpSum); err != nil {
				return err
			}
			if !bytes.Equal(r1, r2) {
				return fmt.Errorf("np=%d rank=%d: RD %v vs reduce+bcast %v",
					np, c.Rank(), DecodeFloat64s(r2), DecodeFloat64s(r1))
			}
			return nil
		})
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestAllreduceRDMax(t *testing.T) {
	w := newTestWorld(t, 6) // non-power-of-two exercises the fold steps
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{c.Rank() * 7})
		recv := make([]byte, len(send))
		if err := c.AllreduceRD(send, recv, Int64, OpMax); err != nil {
			return err
		}
		if got := DecodeInts(recv)[0]; got != 35 {
			return fmt.Errorf("rank %d: max = %d, want 35", c.Rank(), got)
		}
		return nil
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		// send[j] = rank + j for block j; sum over ranks of block j's
		// element = sum(ranks) + np*j.
		vals := make([]float64, np)
		for j := range vals {
			vals[j] = float64(c.Rank() + j)
		}
		send := EncodeFloat64s(vals)
		recv := make([]byte, 8)
		if err := c.ReduceScatterBlock(send, recv, Float64, OpSum); err != nil {
			return err
		}
		want := float64(0+1+2+3) + float64(np*c.Rank())
		if got := DecodeFloat64s(recv)[0]; got != want {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
}

func TestReduceScatterBlockValidation(t *testing.T) {
	w := newTestWorld(t, 3)
	run(t, w, func(c *Comm) error {
		if err := c.ReduceScatterBlock(make([]byte, 10), make([]byte, 3), Byte, OpSum); err == nil {
			return errors.New("indivisible buffer should fail")
		}
		if err := c.ReduceScatterBlock(make([]byte, 9), make([]byte, 2), Byte, OpSum); err == nil {
			return errors.New("wrong recv size should fail")
		}
		return nil
	})
}

func TestVariantCollectivesAreMonitoredAsColl(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{1})
		recv := make([]byte, len(send))
		if err := c.AllreduceRD(send, recv, Int64, OpSum); err != nil {
			return err
		}
		if err := c.Scan(send, recv, Int64, OpSum); err != nil {
			return err
		}
		return nil
	})
	var p2p, coll uint64
	for r := 0; r < np; r++ {
		p2p += w.Proc(r).Monitor().TotalBytes(0)  // pml.P2P
		coll += w.Proc(r).Monitor().TotalBytes(1) // pml.Coll
	}
	if p2p != 0 {
		t.Fatalf("variant collectives leaked %d bytes into the P2P class", p2p)
	}
	if coll == 0 {
		t.Fatal("variant collectives recorded nothing")
	}
}
