package mpi

import (
	"fmt"
	"testing"
)

func TestScanInclusive(t *testing.T) {
	const np = 6
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{c.Rank() + 1})
		recv := make([]byte, len(send))
		if err := c.Scan(send, recv, Int64, OpSum); err != nil {
			return err
		}
		want := (c.Rank() + 1) * (c.Rank() + 2) / 2
		if got := DecodeInts(recv)[0]; got != want {
			return fmt.Errorf("rank %d scan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

func TestExscan(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		send := EncodeInts([]int{c.Rank() + 1})
		recv := EncodeInts([]int{-99}) // rank 0's must stay untouched
		if err := c.Exscan(send, recv, Int64, OpSum); err != nil {
			return err
		}
		got := DecodeInts(recv)[0]
		if c.Rank() == 0 {
			if got != -99 {
				return fmt.Errorf("rank 0 exscan touched the buffer: %d", got)
			}
			return nil
		}
		want := c.Rank() * (c.Rank() + 1) / 2
		if got != want {
			return fmt.Errorf("rank %d exscan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

func TestExscanAliasedBuffer(t *testing.T) {
	for name, eng := range testEngines(t) {
		const np = 5
		w := newEngineWorld(t, np, eng)
		run(t, w, func(c *Comm) error {
			buf := EncodeInts([]int{c.Rank() + 1})
			if err := c.Exscan(buf, buf, Int64, OpSum); err != nil {
				return err
			}
			got := DecodeInts(buf)[0]
			if c.Rank() == 0 {
				if got != 1 { // untouched, as in MPI
					return fmt.Errorf("%s: rank 0 exscan touched aliased buffer: %d", name, got)
				}
				return nil
			}
			want := c.Rank() * (c.Rank() + 1) / 2
			if got != want {
				return fmt.Errorf("%s: rank %d aliased exscan = %d, want %d", name, c.Rank(), got, want)
			}
			return nil
		})
	}
}
