package mpi

import (
	"reflect"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
)

// scheduleNPs are the group sizes the schedule table is checked at.
var scheduleNPs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48}

// scheduled reports whether the pinned collective named name runs as a
// schedule: all but the one left as code.
func scheduled(name string) bool { return name != "AlltoallvBruck" }

// runPinned runs the pinned collective pc at root on a fresh np-rank event
// world and returns the world and the schedule each rank ran.
func runPinned(t *testing.T, name string, np, root int) (*World, []sched) {
	t.Helper()
	var call func(c *Comm, root int, size func(int) int) ([]byte, error)
	for _, pc := range pinnedCollectives {
		if pc.name == name {
			call = pc.call
		}
	}
	w, err := NewWorld(netsim.PlaFRIM(2), np, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]sched, np)
	schedTrace = func(c *Comm, k *sched) { scheds[c.Rank()] = *k }
	defer func() { schedTrace = nil }()
	if err := w.Run(func(c *Comm) error {
		_, err := call(c, max(root, 0), fullSize)
		return err
	}); err != nil {
		t.Fatalf("%s np=%d root=%d: %v", name, np, root, err)
	}
	return w, scheds
}

// TestScheduleDecomposition: a schedule's matrix is its send list. For
// every scheduled collective at every size of scheduleNPs, the send steps
// of the schedules the ranks ran, summed per peer, equal the pml Coll count
// and byte matrices of the world that ran them.
func TestScheduleDecomposition(t *testing.T) {
	for _, pc := range pinnedCollectives {
		if !scheduled(pc.name) {
			continue
		}
		for _, np := range scheduleNPs {
			for _, root := range pinRoots(pc.rooted, np) {
				w, scheds := runPinned(t, pc.name, np, root)
				for r, k := range scheds {
					counts, bytes := make([]uint64, np), make([]uint64, np)
					var st step
					for i := 0; i < k.steps(); i++ {
						if k.step(i, &st); st.sends {
							counts[st.to]++
							bytes[st.to] += uint64(st.sn)
						}
					}
					gotCounts, gotBytes := make([]uint64, np), make([]uint64, np)
					w.Proc(r).Monitor().Counts(pml.Coll, gotCounts)
					w.Proc(r).Monitor().Bytes(pml.Coll, gotBytes)
					if !reflect.DeepEqual(counts, gotCounts) || !reflect.DeepEqual(bytes, gotBytes) {
						t.Errorf("%s np=%d root=%d rank %d: schedule sends %v messages, %v bytes; monitored %v, %v",
							pc.name, np, root, r, counts, bytes, gotCounts, gotBytes)
					}
				}
			}
		}
	}
}

// TestSkeletonTwins: a size-only collective is its data collective's
// schedule without the payload, so at every size of scheduleNPs and at
// roots 0 and np-1 the two runs have the same dispatch count, clocks, MPI
// times, matrices of every class and NIC counters.
func TestSkeletonTwins(t *testing.T) {
	for _, twin := range [][2]string{{"Bcast", "BcastN"}, {"Reduce", "ReduceN"}, {"Gather", "GatherN"}, {"Allgather", "AllgatherN"}} {
		rooted := twin[0] != "Allgather"
		for _, np := range scheduleNPs {
			for _, root := range pinRoots(rooted, np) {
				data, _ := runPinned(t, twin[0], np, root)
				skel, _ := runPinned(t, twin[1], np, root)
				if de, se := data.EngineStats().Events, skel.EngineStats().Events; de != se {
					t.Errorf("%s np=%d root=%d: %d events, %s %d", twin[0], np, root, de, twin[1], se)
				}
				if d := golden.Diff(skel.State(), data.State()); d != "" {
					t.Errorf("%s np=%d root=%d: %s (got) vs %s (want): %s", twin[0], np, root, twin[1], twin[0], d)
				}
			}
		}
	}
}
