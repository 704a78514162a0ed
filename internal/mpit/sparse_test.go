package mpit

import (
	"testing"

	"mpimon/internal/pml"
)

// TestTouchedAndReadAt covers the handle-level sparse read path: Touched
// lists the peers with traffic for the handle's class, and ReadAt over
// that list matches a full Read.
func TestTouchedAndReadAt(t *testing.T) {
	mon := pml.NewMonitor(16, pml.Distinct)
	ti := New(mon)
	s := ti.SessionCreate()
	hb, err := s.AllocHandle(VarP2PBytes)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := s.AllocHandle(VarP2PCount)
	if err != nil {
		t.Fatal(err)
	}
	mon.Record(pml.P2P, 3, 100, 0)
	mon.Record(pml.P2P, 12, 50, 0)
	mon.Record(pml.P2P, 3, 1, 0)
	mon.Record(pml.Coll, 7, 9, 0) // other class: invisible to P2P handles

	peers, err := hb.Touched()
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != 3 || peers[1] != 12 {
		t.Fatalf("Touched = %v, want [3 12]", peers)
	}
	sparse := make([]uint64, len(peers))
	if err := hb.ReadAt(peers, sparse); err != nil {
		t.Fatal(err)
	}
	dense := make([]uint64, 16)
	if err := hb.Read(dense); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if sparse[i] != dense[p] {
			t.Fatalf("bytes ReadAt peer %d = %d, Read says %d", p, sparse[i], dense[p])
		}
	}
	if err := hc.ReadAt(peers, sparse); err != nil {
		t.Fatal(err)
	}
	if sparse[0] != 2 || sparse[1] != 1 {
		t.Fatalf("count ReadAt = %v, want [2 1]", sparse)
	}
}

func TestSparseReadErrors(t *testing.T) {
	mon := pml.NewMonitor(4, pml.Distinct)
	ti := New(mon)
	s := ti.SessionCreate()
	h, err := s.AllocHandle(VarCollBytes)
	if err != nil {
		t.Fatal(err)
	}
	err = h.ReadAt([]int{1, 2}, make([]uint64, 1))
	if want := "mpit: " + VarCollBytes + " needs a buffer of 2 elements for 2 peers, got 1"; err == nil || err.Error() != want {
		t.Fatalf("ReadAt with 2 peers and 1 element: %v, want %q", err, want)
	}
	s.Free()
	if _, err := h.Touched(); err == nil {
		t.Fatal("Touched through freed session accepted")
	}
	if err := h.ReadAt([]int{0}, make([]uint64, 1)); err == nil {
		t.Fatal("ReadAt through freed session accepted")
	}
}
