package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpimon/internal/golden"
	"mpimon/internal/netsim"
	"mpimon/internal/telemetry"
)

// parkUntilRingWaits parks the calling rank for 1 ms of virtual time, long
// enough for every other rank to be parked in the world ring, which cannot
// complete without it.
func parkUntilRingWaits(c *Comm) {
	if _, err := c.RecvTimeout(0, 99, nil, time.Millisecond); !errors.Is(err, ErrTimeout) {
		panic(fmt.Sprintf("RecvTimeout returned %v, want ErrTimeout", err))
	}
}

// TestRingParkedExits covers every way out of a collective whose ranks are
// parked, as their schedule cursors, waiting for a message on the event
// engine. 48 ranks on two nodes first run a data Allgather and a skeleton
// AllgatherN in the halves a Split makes, then a collective on COMM_WORLD —
// the ring AllgatherN, or the binary-tree ReduceN, in whose tree the last
// rank's ancestors wait for it — that the last rank leaves: it returns nil
// at once (a deadlock), or parks until the others wait and then returns an
// error (the world aborts), returns the error of its own timed-out receive
// (the world aborts) or revokes COMM_WORLD (the fault wake: every parked
// rank is woken with fault tolerance armed). In the telemetry cases every
// rank enters, and the span stream is pinned too. Each case pins the run's
// error, every rank's error class (. nil, A aborted, D deadlock, R revoked,
// T timed out, ? other), the dispatch count and the world's state in
// testdata/golden/TestRingParkedExits/<case>.txt. When the last rank leaves the
// ReduceN, only its ancestors 23, 11, 5 and 2 and the root are parked in the
// tree; everyone else has returned.
func TestRingParkedExits(t *testing.T) {
	const np = 48
	aborted := func(c *Comm) error {
		parkUntilRingWaits(c)
		return errors.New("rank left")
	}
	deadlock := func(c *Comm) error { return nil }
	revoked := func(c *Comm) error {
		parkUntilRingWaits(c)
		return c.Revoke()
	}
	timeout := func(c *Comm) error {
		_, err := c.RecvTimeout(0, 99, nil, time.Millisecond)
		return err
	}
	ring := func(c *Comm) error { return c.AllgatherN(64 << 10) }
	reduce := func(c *Comm) error { return c.ReduceN(64<<10, 0) }
	for _, tc := range []struct {
		name  string
		world func(c *Comm) error // the collective on COMM_WORLD
		last  func(c *Comm) error // the last rank's part in it, nil to enter it
	}{
		{"aborted", ring, aborted},
		{"deadlock", ring, deadlock},
		{"revoked", ring, revoked},
		{"timeout", ring, timeout},
		{"telemetry", ring, nil},
		{"reduce/aborted", reduce, aborted},
		{"reduce/deadlock", reduce, deadlock},
		{"reduce/revoked", reduce, revoked},
		{"reduce/timeout", reduce, timeout},
		{"reduce/telemetry", reduce, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithEngine(EngineEvent)}
			var tel *telemetry.Telemetry
			if tc.last == nil {
				tel = telemetry.New()
				opts = append(opts, WithTelemetry(tel))
			}
			w, err := NewWorld(netsim.PlaFRIM(2), np, opts...)
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, np)
			runErr := w.Run(func(c *Comm) error {
				errs[c.Rank()] = func() error {
					half, err := c.Split(c.Rank()%2, c.Rank())
					if err != nil {
						return err
					}
					own := bytes.Repeat([]byte{byte(c.Rank())}, 96)
					all := make([]byte, len(own)*half.Size())
					if err := half.Allgather(own, all); err != nil {
						return err
					}
					if err := half.AllgatherN(4 << 10); err != nil {
						return err
					}
					if c.Rank() == np-1 && tc.last != nil {
						return tc.last(c)
					}
					return tc.world(c)
				}()
				return errs[c.Rank()]
			})
			got := ""
			if runErr != nil {
				got = runErr.Error()
			}
			var ranks strings.Builder
			for _, e := range errs {
				switch {
				case e == nil:
					ranks.WriteByte('.')
				case errors.Is(e, ErrAborted):
					ranks.WriteByte('A')
				case errors.Is(e, ErrDeadlock):
					ranks.WriteByte('D')
				case errors.Is(e, ErrRevoked):
					ranks.WriteByte('R')
				case errors.Is(e, ErrTimeout):
					ranks.WriteByte('T')
				default:
					ranks.WriteByte('?')
				}
			}
			text := fmt.Sprintf("runerr %s\nranks %s\nevents %d\n%s", got, ranks.String(), w.EngineStats().Events, golden.Digest(w.State()))
			if tel != nil {
				var buf bytes.Buffer
				if err := telemetry.WriteCSV(&buf, tel.Spans()); err != nil {
					t.Fatal(err)
				}
				text += golden.Blocks(strings.Split(buf.String(), "\n"), 256)
			}
			golden.Check(t, text)
		})
	}
}
