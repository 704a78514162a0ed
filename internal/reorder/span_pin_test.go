package reorder

import (
	"bytes"
	"strings"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/telemetry"
	"mpimon/internal/treematch"
)

// TestSpanStreamPinned pins the exported span stream of one event-engine
// world with a telemetry hub byte for byte: a p2p ring, a Bcast/Allreduce
// round, a monitoring session's Start/Suspend/Continue and one Fig. 1
// reorder phase. testdata/golden/TestSpanStreamPinned.txt holds the CSV and
// the Chrome trace in blocks of 256 records, whose digests match the
// streams recorded before the span store became a chunked log, so any
// change to how spans are kept that changes a value, an id or the order of
// Spans() shows here, at its first differing block.
func TestSpanStreamPinned(t *testing.T) {
	const nodes, np = 2, 48
	mach := netsim.PlaFRIM(nodes)
	rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	w, err := mpi.NewWorld(mach, np, mpi.WithPlacement(rr),
		mpi.WithEngine(mpi.EngineEvent), mpi.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	phase := func(c *mpi.Comm) error { return groupPhase(c, 4, 4<<10) }
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		next, prev := (c.Rank()+1)%np, (c.Rank()+np-1)%np
		if err := c.Send(next, 3, make([]byte, 128*(c.Rank()+1))); err != nil {
			return err
		}
		if _, err := c.Recv(prev, 3, nil); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := s.Continue(); err != nil {
			return err
		}
		if err := c.Bcast(make([]byte, 8<<10), 5); err != nil {
			return err
		}
		in := bytes.Repeat([]byte{byte(c.Rank())}, 1<<10)
		if err := c.Allreduce(in, make([]byte, len(in)), mpi.Byte, mpi.OpMax); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		if err := s.Free(); err != nil {
			return err
		}
		opt, _, err := MonitorAndReorder(env, c, phase)
		if err != nil {
			return err
		}
		return opt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans()
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"msg:p2p", "msg:coll", "recv.wait", "bcast", "allreduce",
		"session.start", "session.suspend", "session.continue", "reorder.monitor",
		"reorder.gather", "reorder.treematch", "reorder.split", "comm.split"} {
		if !seen[name] {
			t.Errorf("span stream has no %q span", name)
		}
	}
	var csvText, chromeText bytes.Buffer
	if err := telemetry.WriteCSV(&csvText, spans); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(&chromeText, spans); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "case csv\n"+golden.Blocks(strings.Split(csvText.String(), "\n"), 256)+
		"case chrome\n"+golden.Blocks(strings.Split(chromeText.String(), "},{"), 256))
}
