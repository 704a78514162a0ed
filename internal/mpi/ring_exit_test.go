package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

// collFingerprint hashes every rank's pml Coll row, message counts then
// bytes per peer.
func collFingerprint(w *World) uint64 {
	h := fnv.New64a()
	row := make([]uint64, w.Size())
	var b [8]byte
	for r := 0; r < w.Size(); r++ {
		for _, wantBytes := range []bool{false, true} {
			if wantBytes {
				w.Proc(r).Monitor().Bytes(pml.Coll, row)
			} else {
				w.Proc(r).Monitor().Counts(pml.Coll, row)
			}
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

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
// error, every rank's error class, the dispatch count, the final clocks
// and the pml Coll counters.
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
	const timedOut = "mpi: operation timed out (op recv)"
	// treeRanks is the rank errors of a ReduceN the last rank leaves: its
	// ancestors 23, 11, 5 and 2 and the root are parked in the tree, the root
	// with class root, rank 2 with class two; everyone else has returned.
	treeRanks := func(root, two, last byte) string {
		b := []byte(strings.Repeat(".", np))
		b[0], b[2], b[5], b[11], b[23], b[np-1] = root, two, 'A', 'A', 'A', last
		return string(b)
	}
	for _, tc := range []struct {
		name   string
		world  func(c *Comm) error // the collective on COMM_WORLD
		last   func(c *Comm) error // the last rank's part in it, nil to enter it
		runErr string
		ranks  string // per rank: . nil, A aborted, D deadlock, R revoked, T timed out, ? other
		events uint64
		clocks uint64
		coll   uint64
		spans  string
	}{
		{"aborted", ring, aborted, "rank left", strings.Repeat("A", np-1) + "?",
			768, 0x8ebd4a6870c1bf30, 0x3f1283b4cbcf2e51, ""},
		{"deadlock", ring, deadlock,
			"mpi: deadlock: every rank is blocked and no event is pending (op recv)", "D" + strings.Repeat("A", np-2) + ".",
			767, 0xd1c0a857c874226, 0x3f1283b4cbcf2e51, ""},
		{"revoked", ring, revoked, "mpi: communicator revoked (op recv)", "R" + strings.Repeat("A", np-2) + ".",
			768, 0x8ebd4a6870c1bf30, 0x3f1283b4cbcf2e51, ""},
		{"timeout", ring, timeout, timedOut, strings.Repeat("A", np-1) + "T",
			768, 0x8ebd4a6870c1bf30, 0x3f1283b4cbcf2e51, ""},
		{"telemetry", ring, nil, "", strings.Repeat(".", np),
			1362, 0x493352a84fb6acc3, 0x89662bcea4929a11, "ccae351b25a510382cc7ad086130dc907a5f6b3a8dd7a953b558dc109fcf88f6"},
		{"reduce/aborted", reduce, aborted, "rank left", treeRanks('A', 'A', '?'),
			212, 0x3b4d9fc58e5e5aed, 0xf20053b23ec8dcf9, ""},
		{"reduce/deadlock", reduce, deadlock,
			"mpi: deadlock: every rank is blocked and no event is pending (op recv)", treeRanks('D', 'A', '.'),
			211, 0x19df6e9bf3cc3a3b, 0xf20053b23ec8dcf9, ""},
		{"reduce/revoked", reduce, revoked, "mpi: communicator revoked (op recv)", treeRanks('A', 'R', '.'),
			212, 0x3b4d9fc58e5e5aed, 0xf20053b23ec8dcf9, ""},
		{"reduce/timeout", reduce, timeout, timedOut, treeRanks('A', 'A', 'T'),
			212, 0x3b4d9fc58e5e5aed, 0xf20053b23ec8dcf9, ""},
		{"reduce/telemetry", reduce, nil, "", strings.Repeat(".", np),
			210, 0x3ca38fa6aa16b86b, 0xaa0114984077c8fd, "f2f44b9d77f14346b96e54e8fdb3db6a464ee1b11d5f4a71830f30391bcd79f1"},
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
			spans := ""
			if tel != nil {
				var buf bytes.Buffer
				if err := telemetry.WriteCSV(&buf, tel.Spans()); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				spans = hex.EncodeToString(sum[:])
			}
			if got != tc.runErr {
				t.Errorf("Run returned %q, pinned %q", got, tc.runErr)
			}
			if ranks.String() != tc.ranks {
				t.Errorf("rank errors %s, pinned %s", ranks.String(), tc.ranks)
			}
			events, clocks, coll := w.EngineStats().Events, clockFingerprint(w), collFingerprint(w)
			if events != tc.events || clocks != tc.clocks || coll != tc.coll {
				t.Errorf("%d events, clocks %#x, coll counters %#x; pinned %d, %#x, %#x",
					events, clocks, coll, tc.events, tc.clocks, tc.coll)
			}
			if spans != tc.spans {
				t.Errorf("span stream sha256 %q, pinned %q", spans, tc.spans)
			}
		})
	}
}
