package mpimon

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
)

func TestFacadeQuickstart(t *testing.T) {
	// End-to-end through the public API only: monitor a broadcast,
	// gather the matrix, verify the decomposition is visible.
	const np = 8
	runWorld(t, np, func(c *Comm) error {
		env, err := InitMonitoring(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := c.Bcast(make([]byte, 4096), 0); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		_, mat, err := s.AllgatherData(CollOnly)
		if err != nil {
			return err
		}
		var msgs int
		for _, v := range mat {
			if v > 0 {
				msgs++
			}
		}
		// Binomial bcast over 8 ranks: exactly 7 edges.
		if msgs != 7 {
			return fmt.Errorf("bcast decomposed into %d edges, want 7", msgs)
		}
		return s.Free()
	})
}

func TestFacadeReorderingImprovesPlacementCost(t *testing.T) {
	const np = 48
	topo := PlaFRIM(2).Topo
	rr, err := PlacementRoundRobin(np, topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(PlaFRIM(2), np, WithPlacement(rr))
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		env, err := InitMonitoring(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		// Neighbour exchange: rank pairs (2i, 2i+1) talk a lot.
		phase := func(cc *Comm) error {
			partner := cc.Rank() ^ 1
			_, err := cc.Sendrecv(partner, 0, make([]byte, 1<<16), partner, 0, make([]byte, 1<<16))
			return err
		}
		opt, k, err := MonitorAndReorder(env, c, phase, ReorderFlags(AllComm))
		if err != nil {
			return err
		}
		if opt.Rank() != k[c.Rank()] {
			return fmt.Errorf("new rank %d != k %d", opt.Rank(), k[c.Rank()])
		}
		// After reordering, partners must be co-located on a node.
		if c.Rank() == 0 {
			newPlace := make([]int, np)
			place := c.World().Placement()
			for r, role := range k {
				newPlace[role] = place[r]
			}
			m := NewCommMatrix(np)
			for i := 0; i < np; i += 2 {
				m.Add(i, i+1, 1)
			}
			if got, base := PlacementCost(m, newPlace, topo), PlacementCost(m, rr, topo); got >= base {
				return fmt.Errorf("reordering did not reduce placement cost: %v vs %v", got, base)
			}
		}
		return phase(opt)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCGClassS(t *testing.T) {
	w, err := NewWorld(PlaFRIM(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(2*time.Minute, func(c *Comm) error {
		res, err := RunCG(c, CGConfig{Class: CGClassS, Mode: CGReal})
		if err != nil {
			return err
		}
		if !res.Verified {
			return fmt.Errorf("class S failed verification: zeta=%v", res.Zeta)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTopologyHelpers(t *testing.T) {
	topo, err := ParseTopology("4x2x6")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Leaves() != 48 {
		t.Fatal("parse wrong")
	}
	if _, err := NewTopology(); err == nil {
		t.Fatal("empty topology should fail")
	}
	if len(PlacementPacked(5)) != 5 {
		t.Fatal("packed placement wrong")
	}
	if _, err := PlacementRandom(8, topo, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTrafficHelpers(t *testing.T) {
	evs := []TrafficEvent{{When: int64(5 * time.Millisecond), Bytes: 42}}
	s := BinTraffic(evs, 10*time.Millisecond, 20*time.Millisecond)
	if len(s) != 2 || s[0].Bytes != 42 {
		t.Fatalf("BinTraffic = %v", s)
	}
	cum := CumulativeTraffic(s)
	if cum[1].Bytes != 42 {
		t.Fatalf("CumulativeTraffic = %v", cum)
	}
}

func TestFacadeMatrixAnalysis(t *testing.T) {
	n := 4
	mat := make([]uint64, n*n)
	mat[0*n+1] = 100
	mat[2*n+3] = 100
	v := matrixOf(t, mat, n)
	sum, err := SummarizeMatrix(v)
	if err != nil || sum.Total != 200 {
		t.Fatalf("SummarizeMatrix: %+v, %v", sum, err)
	}
	topo, _ := NewTopology(2, 2)
	loc, err := MatrixLocalityOf(v, topo, []int{0, 1, 2, 3})
	if err != nil || loc.NodeFraction() != 1 {
		t.Fatalf("MatrixLocalityOf: %+v, %v", loc, err)
	}
	pairs, err := TopMatrixPairs(v, 1)
	if err != nil || len(pairs) != 1 || pairs[0].Bytes != 100 {
		t.Fatalf("TopMatrixPairs: %v, %v", pairs, err)
	}
}

func TestFacadeReconfigure(t *testing.T) {
	topo, _ := NewTopology(2, 2)
	mat := make([]uint64, 4)
	mat[0*2+1] = 50
	plan, err := ReconfigureFromView(matrixOf(t, mat, 2), topo, []int{0, 2}, SurvivingCores(topo, 1), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.SameNode(plan.Placement[0], plan.Placement[1]) {
		t.Fatalf("pair not co-located after reconfiguration: %v", plan.Placement)
	}
	place, err := StaticPlacementFromView(matrixOf(t, mat, 2), topo, nil)
	if err != nil || len(place) != 2 {
		t.Fatalf("StaticPlacementFromView: %v, %v", place, err)
	}
}

// TestFacadeTraceRoundTrip: the post-mortem trace of a run is its message
// spans — written as CSV rows and folded back into a matrix.
func TestFacadeTraceRoundTrip(t *testing.T) {
	tel := NewTelemetry()
	w, err := NewWorld(PlaFRIM(1), 2, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 64))
		}
		_, err := c.Recv(0, 0, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTelemetryCSV(&buf, tel.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",message,msg:p2p,") || !strings.Contains(buf.String(), ",0,1,64,p2p,") {
		t.Fatalf("CSV trace lacks the 0->1 message row:\n%s", buf.String())
	}
	mats, err := TracePhaseMatrices(tel.Spans(), 2, 0)
	if err != nil || len(mats) != 1 {
		t.Fatalf("TracePhaseMatrices: %v, %v", mats, err)
	}
	if c, b := mats[0].At(0, 1); c != 1 || b != 64 || mats[0].NNZ() != 1 {
		t.Fatalf("trace matrix 0->1 = (%d, %d) of %d entries, want (1, 64) alone", c, b, mats[0].NNZ())
	}
}

func TestFacadeStencil(t *testing.T) {
	w, err := NewWorld(PlaFRIM(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		res, err := RunStencil(c, StencilConfig{NX: 16, NY: 16, Iters: 20})
		if err != nil {
			return err
		}
		if res.Checksum <= 0 {
			return fmt.Errorf("no heat diffused: %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeUtilizationPredictor(t *testing.T) {
	p, err := NewUtilizationPredictor(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := p.Observe(time.Duration(i)*time.Millisecond, 100); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Underutilized(time.Millisecond, 500) {
		t.Fatal("100 B/period should be under 500")
	}
}

func TestFacadeWrapperCoverage(t *testing.T) {
	// Exercise the thin alias wrappers end-to-end.
	if cls, err := CGClassByName("B"); err != nil || cls.NA != 75000 {
		t.Fatalf("CGClassByName: %+v, %v", cls, err)
	}
	if m := IBPair(); m.Topo.NumNodes() != 2 {
		t.Fatal("IBPair wrapper wrong")
	}
	if m := MultiSwitch(2, 2); m.Topo.NumNodes() != 4 {
		t.Fatal("MultiSwitch wrapper wrong")
	}
	if topo, err := NewTopologyWithNodeDepth(2, 2, 2, 2); err != nil || topo.NodeDepth() != 2 {
		t.Fatal("NewTopologyWithNodeDepth wrapper wrong")
	}
	f := []float64{1.5, -2}
	if got := DecodeFloat64Slice(EncodeFloat64Slice(f)); got[0] != 1.5 || got[1] != -2 {
		t.Fatal("float64 slice round trip")
	}
	iv := []int{3, -4}
	if got := DecodeIntSlice(EncodeIntSlice(iv)); got[0] != 3 || got[1] != -4 {
		t.Fatal("int slice round trip")
	}
	uv := []uint64{9, 1 << 60}
	if got := DecodeUint64Slice(EncodeUint64Slice(uv)); got[1] != 1<<60 {
		t.Fatal("uint64 slice round trip")
	}
	m := NewCommMatrix(2)
	m.Add(0, 1, 5)
	topo, _ := NewTopology(2)
	if coreOf, err := TreeMatch(m, topo.FullTree()); err != nil || len(coreOf) != 2 {
		t.Fatal("TreeMatch wrapper")
	}
	if m2, err := CommMatrixFromView(matrixOf(t, []uint64{0, 1, 2, 0}, 2)); err != nil || m2.Affinity(0, 1) != 3 {
		t.Fatal("CommMatrixFromView wrapper")
	}
	if k, err := ComputeMapping(matrixOf(t, []uint64{0, 1, 2, 0}, 2), topo, []int{0, 1}); err != nil || len(k) != 2 {
		t.Fatal("ComputeMapping wrapper")
	}
}

func TestFacadeRuntimeWrappers(t *testing.T) {
	mach := IBPair()
	// Spread the ranks across the two nodes so the exchanges hit the NIC.
	per := mach.Topo.LeavesPerNode()
	w, err := NewWorld(mach, 4, WithMonitoringLevel(MonitorDistinct),
		WithPlacement([]int{0, per, 1, per + 1}))
	if err != nil {
		t.Fatal(err)
	}
	w.Network().SetEventLogging(true)
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		env, err := InitMonitoring(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		// Isend/Irecv + WaitAll wrapper.
		other := c.Rank() ^ 1
		sreq, err := c.Isend(other, 0, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		buf := make([]byte, 1)
		rreq, err := c.Irecv(other, 0, buf)
		if err != nil {
			return err
		}
		if err := WaitAll(sreq, rreq); err != nil {
			return err
		}
		if buf[0] != byte(other) {
			return fmt.Errorf("exchange wrong")
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		// ReorderFromSession + Redistribute wrappers.
		opt, k, err := ReorderFromSession(s, ReorderFlags(AllComm))
		if err != nil {
			return err
		}
		if opt.Rank() != k[c.Rank()] {
			return fmt.Errorf("reorder wrapper produced inconsistent ranks")
		}
		if _, err := Redistribute(c, k, []byte{1}); err != nil {
			return err
		}
		return s.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if evs := NICEvents(w.Network(), 0); len(evs) == 0 {
		t.Fatal("NICEvents wrapper saw nothing")
	}
}

func TestFacadeCartAndStencil2D(t *testing.T) {
	dims, err := DimsCreate(12, 2)
	if err != nil || dims[0]*dims[1] != 12 {
		t.Fatalf("DimsCreate: %v, %v", dims, err)
	}
	w, err := NewWorld(PlaFRIM(1), 12)
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		cc, err := c.CartCreate(dims, []bool{true, true}, true)
		if err != nil {
			return err
		}
		src, dst, err := cc.Shift(0, 1)
		if err != nil {
			return err
		}
		if src == ProcNull || dst == ProcNull {
			return fmt.Errorf("periodic grid produced ProcNull")
		}
		res, err := RunStencil2D(c, StencilConfig{NX: 12, NY: 12, Iters: 8}, false)
		if err != nil {
			return err
		}
		if res.Checksum <= 0 {
			return fmt.Errorf("stencil2d produced no heat")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeOnlineController(t *testing.T) {
	// The online loop through the public API: a ring workload that flips
	// direction-distance mid-run; the controller must produce an initial
	// mapping and keep stepping across the remap.
	const np = 8
	rr := make([]int, np)
	for i := range rr {
		rr[i] = (i%2)*24 + i/2 // spread across both PlaFRIM nodes
	}
	w, err := NewWorld(PlaFRIM(2), np, WithPlacement(rr))
	if err != nil {
		t.Fatal(err)
	}
	var windows, remaps int
	err = w.RunWithTimeout(time.Minute, func(c *Comm) error {
		env, err := InitMonitoring(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		ctl, err := NewOnlineController(env, c,
			OnlineWindow(1))
		if err != nil {
			return err
		}
		defer ctl.Close()
		phase := func(stride int) func(*Comm) error {
			return func(cc *Comm) error {
				partner := (cc.Rank() + stride) % cc.Size()
				_, err := cc.SendrecvN(partner, 0, 32<<10, (cc.Rank()-stride+cc.Size())%cc.Size(), 0)
				return err
			}
		}
		for _, stride := range []int{1, 1, 4, 4} {
			if _, _, err := ctl.Step(phase(stride)); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			windows, remaps = ctl.Windows(), ctl.Remaps()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if windows != 4 {
		t.Fatalf("controller saw %d windows, want 4", windows)
	}
	if remaps < 1 {
		t.Fatalf("controller never remapped")
	}
}

func TestFacadeDriftAndPhases(t *testing.T) {
	a := matrixOf(t, []uint64{0, 10, 0, 0}, 2)
	b := matrixOf(t, []uint64{0, 0, 10, 0}, 2)
	d, err := MatrixDrift(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("drift of symmetric mirror = %v, want 0 (pairs fold)", d)
	}
	spans := []TelemetrySpan{
		{Kind: telemetry.KindMessage, Src: 0, Dst: 1, Bytes: 5, Start: int64(time.Millisecond)},
		{Kind: telemetry.KindMessage, Src: 1, Dst: 2, Bytes: 5, Start: int64(time.Second)},
	}
	mats, err := TracePhaseMatrices(spans, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 2 {
		t.Fatalf("%d phase matrices, want 2", len(mats))
	}
	drifts, err := TracePhaseDrifts(mats)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || drifts[0] != 2 {
		t.Fatalf("phase drifts = %v, want [2]", drifts)
	}
}

// matrixOf is the matrix of a row-major n-by-n bytes plane, with the bytes
// as counts.
func matrixOf(t *testing.T, bytes []uint64, n int) *SparseMatrix {
	t.Helper()
	m, err := sparsemat.FromDense(bytes, bytes, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
