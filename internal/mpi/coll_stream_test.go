package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpimon/internal/netsim"
)

// TestGatherStream checks blocks arrive in source order with the correct
// contents, and that the delivery buffer may be reused (root copies).
func TestGatherStream(t *testing.T) {
	const np, root = 6, 2
	w, err := NewWorld(netsim.PlaFRIM(1), np)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	blocks := make(map[int][]byte)
	err = w.Run(func(c *Comm) error {
		me := c.Rank()
		send := bytes.Repeat([]byte{byte(me + 1)}, me+1)
		return c.GatherStream(send, root, func(src int, block []byte) error {
			mu.Lock()
			order = append(order, src)
			blocks[src] = append([]byte(nil), block...)
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != np {
		t.Fatalf("delivered %d blocks, want %d", len(order), np)
	}
	for i, src := range order {
		if i != src {
			t.Errorf("delivery %d came from rank %d, want ascending source order", i, src)
		}
	}
	for src, b := range blocks {
		want := bytes.Repeat([]byte{byte(src + 1)}, src+1)
		if !bytes.Equal(b, want) {
			t.Errorf("rank %d block = %v, want %v", src, b, want)
		}
	}
}

func TestGatherStreamDeliverError(t *testing.T) {
	w, err := NewWorld(netsim.PlaFRIM(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("deliver failed")
	err = w.Run(func(c *Comm) error {
		err := c.GatherStream([]byte{byte(c.Rank())}, 0, func(src int, block []byte) error {
			if src == 1 {
				return boom
			}
			return nil
		})
		if c.Rank() == 0 && err == nil {
			return fmt.Errorf("GatherStream swallowed the deliver error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
