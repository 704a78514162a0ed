package mpit

import (
	"sync"
	"testing"

	"mpimon/internal/pml"
)

// TestAppendSparseMatchesRead covers the sparse read of all pvars: each
// class lists the peers with traffic in first-touch order, appended after
// what the buffers held, with the values a full Read of the count and size
// pvars gives.
func TestAppendSparseMatchesRead(t *testing.T) {
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
	mon.Record(pml.P2P, 12, 50, 0)
	mon.Record(pml.P2P, 3, 100, 0)
	mon.Record(pml.P2P, 12, 1, 0)
	mon.Record(pml.Coll, 7, 9, 0)

	var bufs [pml.NumClasses][]pml.Entry
	bufs[pml.P2P] = []pml.Entry{{Dst: 1}}
	if err := s.AppendSparse(&bufs); err != nil {
		t.Fatal(err)
	}
	p2p := bufs[pml.P2P]
	if len(p2p) != 3 || p2p[1].Dst != 12 || p2p[2].Dst != 3 {
		t.Fatalf("P2P entries = %v, want the kept one, then peers 12 and 3", p2p)
	}
	counts := make([]uint64, 16)
	bytes := make([]uint64, 16)
	if err := hc.Read(counts); err != nil {
		t.Fatal(err)
	}
	if err := hb.Read(bytes); err != nil {
		t.Fatal(err)
	}
	for _, e := range p2p[1:] {
		if e.Cnt != counts[e.Dst] || e.Byt != bytes[e.Dst] {
			t.Fatalf("peer %d: %d msgs / %d B, Read says %d / %d", e.Dst, e.Cnt, e.Byt, counts[e.Dst], bytes[e.Dst])
		}
	}
	if c := bufs[pml.Coll]; len(c) != 1 || c[0] != (pml.Entry{Dst: 7, Cnt: 1, Byt: 9}) {
		t.Fatalf("Coll entries = %v, want peer 7 with one message of 9 B", c)
	}
	if o := bufs[pml.Osc]; len(o) != 0 {
		t.Fatalf("Osc entries = %v, want none", o)
	}
}

func TestSparseReadErrors(t *testing.T) {
	mon := pml.NewMonitor(4, pml.Distinct)
	mon.Record(pml.P2P, 1, 8, 0)
	s := New(mon).SessionCreate()
	s.Free()
	var bufs [pml.NumClasses][]pml.Entry
	if err := s.AppendSparse(&bufs); err == nil {
		t.Fatal("AppendSparse through freed session accepted")
	}
	if len(bufs[pml.P2P]) != 0 {
		t.Fatalf("a refused read appended %v", bufs[pml.P2P])
	}
}

// TestConcurrentAppendSparse races a reader scraping every pvar through
// AppendSparse into reused buffers against the recording rank, as a tool
// thread would: each read must be a consistent snapshot (8 bytes per
// message, at most the writer's five peers, positions stable and counters
// never going back) and the final read exact. Run with -race.
func TestConcurrentAppendSparse(t *testing.T) {
	mon := pml.NewMonitor(32, pml.Distinct)
	s := New(mon).SessionCreate()
	const msgs = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var bufs, prev [pml.NumClasses][]pml.Entry
		for {
			select {
			case <-stop:
				return
			default:
			}
			for cl := range bufs {
				bufs[cl] = bufs[cl][:0]
			}
			if err := s.AppendSparse(&bufs); err != nil {
				t.Error(err)
				return
			}
			got := bufs[pml.P2P]
			if len(got) > 5 || len(got) < len(prev[pml.P2P]) {
				t.Errorf("read %d peers after %d, want between that and the writer's 5", len(got), len(prev[pml.P2P]))
				return
			}
			for k, e := range got {
				if e.Byt != 8*e.Cnt {
					t.Errorf("peer %d: %d msgs and %d B, want 8 B each", e.Dst, e.Cnt, e.Byt)
					return
				}
				if k < len(prev[pml.P2P]) && (e.Dst != prev[pml.P2P][k].Dst || e.Cnt < prev[pml.P2P][k].Cnt) {
					t.Errorf("position %d went from %+v to %+v", k, prev[pml.P2P][k], e)
					return
				}
			}
			bufs, prev = prev, bufs
		}
	}()
	for i := 0; i < msgs; i++ {
		mon.Record(pml.P2P, i%5, 8, int64(i))
	}
	close(stop)
	wg.Wait()
	var bufs [pml.NumClasses][]pml.Entry
	if err := s.AppendSparse(&bufs); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, e := range bufs[pml.P2P] {
		total += e.Byt
	}
	if total != msgs*8 {
		t.Fatalf("read %d B in total, want %d", total, msgs*8)
	}
}
