package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mpimon/internal/netsim"
)

func TestGathervScatterv(t *testing.T) {
	const np = 4
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		// Rank i contributes i+1 bytes of value i.
		mine := make([]byte, c.Rank()+1)
		for i := range mine {
			mine[i] = byte(c.Rank())
		}
		counts := []int{1, 2, 3, 4}
		displs := []int{0, 1, 3, 6}
		var all []byte
		if c.Rank() == 0 {
			all = make([]byte, 10)
		}
		if err := c.Gatherv(mine, all, counts, displs, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := []byte{0, 1, 1, 2, 2, 2, 3, 3, 3, 3}
			if !bytes.Equal(all, want) {
				return fmt.Errorf("gatherv = %v, want %v", all, want)
			}
		}
		// Scatter it back out.
		back := make([]byte, c.Rank()+1)
		if err := c.Scatterv(all, counts, displs, back, 0); err != nil {
			return err
		}
		for i := range back {
			if back[i] != byte(c.Rank()) {
				return fmt.Errorf("scatterv to rank %d = %v", c.Rank(), back)
			}
		}
		return nil
	})
}

func TestGathervValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			// counts/displs overflow the recv buffer.
			if err := c.Gatherv([]byte{1}, make([]byte, 2), []int{1, 5}, []int{0, 1}, 0); err == nil {
				return errors.New("overflowing gatherv should fail")
			}
			// Consume rank 1's pending block with a correct call.
			return c.Gatherv([]byte{1}, make([]byte, 2), []int{1, 1}, []int{0, 1}, 0)
		}
		if err := c.Gatherv([]byte{9}, nil, nil, nil, 0); err != nil {
			return err
		}
		return c.Gatherv([]byte{9}, nil, nil, nil, 0)
	})
}

func TestAllgatherv(t *testing.T) {
	const np = 5
	w := newTestWorld(t, np)
	run(t, w, func(c *Comm) error {
		counts := []int{1, 2, 3, 4, 5}
		displs := []int{0, 1, 3, 6, 10}
		mine := make([]byte, counts[c.Rank()])
		for i := range mine {
			mine[i] = byte(c.Rank() + 1)
		}
		recv := make([]byte, 15)
		if err := c.Allgatherv(mine, recv, counts, displs); err != nil {
			return err
		}
		for i := 0; i < np; i++ {
			for k := 0; k < counts[i]; k++ {
				if recv[displs[i]+k] != byte(i+1) {
					return fmt.Errorf("rank %d sees %v", c.Rank(), recv)
				}
			}
		}
		return nil
	})
}

func TestAllgathervValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if err := c.Allgatherv(nil, nil, []int{1}, []int{0}); err == nil {
			return errors.New("short counts should fail")
		}
		if err := c.Allgatherv(make([]byte, 3), make([]byte, 2), []int{1, 1}, []int{0, 1}); err == nil {
			return errors.New("send/count mismatch should fail")
		}
		if err := c.Allgatherv(make([]byte, 1), make([]byte, 1), []int{1, 5}, []int{0, 1}); err == nil {
			return errors.New("overflowing block should fail")
		}
		return nil
	})
}

// TestAllgathervAssemblesIdentically exchanges rank-dependent
// variable-length blocks and checks every member assembles the same
// concatenation.
func TestAllgathervAssemblesIdentically(t *testing.T) {
	const np = 5
	w, err := NewWorld(netsim.PlaFRIM(1), np)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, np)
	displs := make([]int, np)
	total := 0
	for i := 0; i < np; i++ {
		counts[i] = i + 1 // rank i contributes i+1 bytes
		displs[i] = total
		total += counts[i]
	}
	want := make([]byte, total)
	for i := 0; i < np; i++ {
		for k := 0; k < counts[i]; k++ {
			want[displs[i]+k] = byte(10*i + k)
		}
	}
	var mu sync.Mutex
	got := make([][]byte, np)
	err = w.Run(func(c *Comm) error {
		me := c.Rank()
		send := make([]byte, counts[me])
		for k := range send {
			send[k] = byte(10*me + k)
		}
		recv := make([]byte, total)
		if err := c.Allgatherv(send, recv, counts, displs); err != nil {
			return err
		}
		mu.Lock()
		got[me] = recv
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < np; i++ {
		if !bytes.Equal(got[i], want) {
			t.Errorf("rank %d assembled %v, want %v", i, got[i], want)
		}
	}
}

func TestAllgathervRejectsBadGeometry(t *testing.T) {
	w, err := NewWorld(netsim.PlaFRIM(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		err := c.Allgatherv(make([]byte, 3), make([]byte, 2), []int{1, 1}, []int{0, 1})
		if err == nil {
			return fmt.Errorf("Allgatherv accepted a send buffer of the wrong length")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
