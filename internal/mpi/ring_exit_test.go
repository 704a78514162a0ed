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

// TestRingParkedExits covers every way out of a ring allgather whose ranks
// are parked waiting for a round's message on the event engine. 48 ranks on
// two nodes first run a data Allgather and a skeleton AllgatherN in the
// halves a Split makes, then an AllgatherN on COMM_WORLD that the last rank
// leaves: it returns nil at once (a deadlock), or parks until the others
// wait in the ring and then returns an error (the world aborts) or revokes
// COMM_WORLD. In the telemetry case every rank enters, and the span stream
// is pinned too. Each case pins the run's error, every rank's error class,
// the dispatch count, the final clocks and the pml Coll counters.
func TestRingParkedExits(t *testing.T) {
	const np = 48
	for _, tc := range []struct {
		name   string
		last   func(c *Comm) error // the last rank's part in the world ring, nil to enter it
		runErr string
		ranks  string // per rank: . nil, A aborted, D deadlock, R revoked, ? other
		events uint64
		clocks uint64
		coll   uint64
		spans  string
	}{
		{"aborted", func(c *Comm) error {
			parkUntilRingWaits(c)
			return errors.New("rank left")
		}, "rank left", strings.Repeat("A", np-1) + "?",
			768, 0x8ebd4a6870c1bf30, 0x3f1283b4cbcf2e51, ""},
		{"deadlock", func(c *Comm) error { return nil },
			"mpi: deadlock: every rank is blocked and no event is pending (op recv)", "D" + strings.Repeat("A", np-2) + ".",
			767, 0xd1c0a857c874226, 0x3f1283b4cbcf2e51, ""},
		{"revoked", func(c *Comm) error {
			parkUntilRingWaits(c)
			return c.Revoke()
		}, "mpi: communicator revoked (op recv)", "R" + strings.Repeat("A", np-2) + ".",
			768, 0x8ebd4a6870c1bf30, 0x3f1283b4cbcf2e51, ""},
		{"telemetry", nil, "", strings.Repeat(".", np),
			1362, 0x493352a84fb6acc3, 0x89662bcea4929a11, "ccae351b25a510382cc7ad086130dc907a5f6b3a8dd7a953b558dc109fcf88f6"},
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
					return c.AllgatherN(64 << 10)
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
