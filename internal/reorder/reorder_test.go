package reorder

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/sparsemat"
	"mpimon/internal/topology"
)

func testMachine(nodes, cores int) *netsim.Machine {
	return &netsim.Machine{
		Topo: topology.MustNew(nodes, cores),
		Links: []netsim.LinkParams{
			{Latency: 2 * time.Microsecond, Bandwidth: 1e9},
			{Latency: 200 * time.Nanosecond, Bandwidth: 8e9},
			{Latency: 50 * time.Nanosecond, Bandwidth: 16e9},
		},
		SendOverhead: 100 * time.Nanosecond,
		RecvOverhead: 100 * time.Nanosecond,
		EagerLimit:   4096,
		Contention:   true,
	}
}

func TestNewRanks(t *testing.T) {
	// Roles 0,1,2 on cores 10,20,30; ranks 0,1,2 on cores 20,30,10.
	k, err := NewRanks([]int{10, 20, 30}, []int{20, 30, 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if k[i] != want[i] {
			t.Fatalf("k = %v, want %v", k, want)
		}
	}
}

func TestNewRanksErrors(t *testing.T) {
	if _, err := NewRanks([]int{1, 2}, []int{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := NewRanks([]int{1, 1}, []int{1, 2}); err == nil {
		t.Fatal("duplicate role core should fail")
	}
	if _, err := NewRanks([]int{1, 2}, []int{1, 3}); err == nil {
		t.Fatal("rank on un-roled core should fail")
	}
}

func TestComputeMappingIdentityWhenAlreadyOptimal(t *testing.T) {
	topo := topology.MustNew(2, 2)
	// Pairs (0,1) and (2,3) heavy; ranks already placed packed: 0,1 on
	// node 0 and 2,3 on node 1. Any k must keep pairs on one node.
	n := 4
	mat := make([]uint64, n*n)
	mat[0*n+1], mat[2*n+3] = 1000, 1000
	place := []int{0, 1, 2, 3}
	k, err := ComputeMapping(sparsemat.DenseView(mat, n), topo, place)
	if err != nil {
		t.Fatal(err)
	}
	// Verify k is a permutation and pairs stay together on a node.
	nodeOfNewRank := make(map[int]int)
	for r, newRank := range k {
		nodeOfNewRank[newRank] = topo.NodeOf(place[r])
	}
	if len(nodeOfNewRank) != n {
		t.Fatalf("k is not a permutation: %v", k)
	}
	if nodeOfNewRank[0] != nodeOfNewRank[1] || nodeOfNewRank[2] != nodeOfNewRank[3] {
		t.Fatalf("reordering split a pair: k=%v", k)
	}
}

// groupPhase makes each block of consecutive ranks exchange heavily; with
// the round-robin placement consecutive ranks sit on different nodes, so
// each group straddles the machine and reordering must help.
func groupPhase(c *mpi.Comm, groups int, bytes int) error {
	groupSize := c.Size() / groups
	color := c.Rank() / groupSize
	sub, err := c.Split(color, c.Rank())
	if err != nil {
		return err
	}
	return sub.AllgatherN(bytes)
}

func TestReorderImprovesGroupedAllgather(t *testing.T) {
	const nodes, cores = 2, 4
	const np = nodes * cores
	const groups = 2 // one per node after reordering
	const chunk = 256 << 10

	// Round-robin placement: rank i on node i%2 — each group of ranks
	// {0,2,4,6} and {1,3,5,7} straddles both nodes.
	rr := make([]int, np)
	for i := range rr {
		rr[i] = (i%nodes)*cores + i/nodes
	}

	runOnce := func(reorderRanks bool) time.Duration {
		w, err := mpi.NewWorld(testMachine(nodes, cores), np, mpi.WithPlacement(rr))
		if err != nil {
			t.Fatal(err)
		}
		var elapsed time.Duration
		err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			work := c
			if reorderRanks {
				opt, k, err := MonitorAndReorder(env, c, func(cc *mpi.Comm) error {
					return groupPhase(cc, groups, chunk)
				}, WithFlags(monitoring.AllComm))
				if err != nil {
					return err
				}
				if len(k) != np {
					return fmt.Errorf("bad permutation length %d", len(k))
				}
				work = opt
			}
			for it := 0; it < 5; it++ {
				if err := groupPhase(work, groups, chunk); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				elapsed = c.Proc().Clock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = elapsed
		return w.MaxClock()
	}

	base := runOnce(false)
	reord := runOnce(true)
	// The reordered run includes the monitored first iteration and the
	// reordering overhead and must still win clearly.
	if reord >= base {
		t.Fatalf("reordering did not pay off: %v (reordered) vs %v (baseline)", reord, base)
	}
}

func TestReorderedCommunicatorRanks(t *testing.T) {
	// After Reorder, old rank r must have rank k[r] in the new
	// communicator (the tricky line 11 of the paper's Fig. 1).
	const np = 4
	w, err := mpi.NewWorld(testMachine(2, 2), np)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		opt, k, err := MonitorAndReorder(env, c, func(cc *mpi.Comm) error {
			// Ring traffic so the matrix is non-trivial.
			next, prev := (cc.Rank()+1)%np, (cc.Rank()-1+np)%np
			if err := cc.Send(next, 0, make([]byte, 1000)); err != nil {
				return err
			}
			_, err := cc.Recv(prev, 0, nil)
			return err
		})
		if err != nil {
			return err
		}
		if opt.Rank() != k[c.Rank()] {
			return fmt.Errorf("old rank %d has new rank %d, want k=%d", c.Rank(), opt.Rank(), k[c.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistribute(t *testing.T) {
	const np = 4
	w, err := mpi.NewWorld(testMachine(2, 2), np)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		// Fixed permutation: reverse.
		k := []int{3, 2, 1, 0}
		data := []byte{byte(c.Rank() + 100)}
		got, err := Redistribute(c, k, data)
		if err != nil {
			return err
		}
		// Rank r takes over role k[r]; role k[r]'s data lived at old
		// rank k[r].
		if len(got) != 1 || got[0] != byte(k[c.Rank()]+100) {
			return fmt.Errorf("rank %d received %v, want data of old rank %d", c.Rank(), got, k[c.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeIdentity(t *testing.T) {
	w, err := mpi.NewWorld(testMachine(2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		got, err := Redistribute(c, []int{0, 1}, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if got[0] != byte(c.Rank()) {
			return errors.New("identity redistribution changed the data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeValidation(t *testing.T) {
	w, err := mpi.NewWorld(testMachine(2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		if _, err := Redistribute(c, []int{0}, nil); err == nil {
			return errors.New("short permutation should fail")
		}
		if _, err := Redistribute(c, []int{5, 1}, nil); err == nil {
			return errors.New("out-of-range permutation should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaticPlacement(t *testing.T) {
	topo := topology.MustNew(2, 4)
	// Two 4-rank cliques.
	n := 8
	mat := make([]uint64, n*n)
	for _, grp := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for _, a := range grp {
			for _, b := range grp {
				if a != b {
					mat[a*n+b] = 100
				}
			}
		}
	}
	place, err := StaticPlacement(sparsemat.DenseView(mat, n), topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each clique must land on one node.
	for _, grp := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		node := topo.NodeOf(place[grp[0]])
		for _, r := range grp[1:] {
			if topo.NodeOf(place[r]) != node {
				t.Fatalf("static placement split a clique: %v", place)
			}
		}
	}
	// Restricted core set.
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := StaticPlacement(sparsemat.DenseView(mat, n), topo, cores); err != nil {
		t.Fatal(err)
	}
	if _, err := StaticPlacement(sparsemat.DenseView(mat, n), topo, cores[:3]); err == nil {
		t.Fatal("too few cores should fail")
	}
	if _, err := StaticPlacement(sparsemat.DenseView(mat, 99), topo, nil); err == nil {
		t.Fatal("more ranks than cores should fail")
	}
}
