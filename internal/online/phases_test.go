package online

import (
	"slices"
	"testing"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// msg is a synthetic message span of bytes from src to dst buffered at t.
func msg(src, dst int, bytes int64, t time.Duration) telemetry.Span {
	return telemetry.Span{Kind: telemetry.KindMessage, Rank: src, Src: src, Dst: dst, Bytes: bytes,
		Start: int64(t), End: int64(t) + 1000}
}

// at is a message span at t whose endpoints do not matter.
func at(t time.Duration) telemetry.Span { return msg(0, 1, 1, t) }

func TestPhaseMatricesAndDrifts(t *testing.T) {
	// Two phases separated by a quiet gap: a 0↔1 exchange, then a 0↔2
	// exchange of the same volume — disjoint supports, drift 2.
	spans := []telemetry.Span{
		msg(0, 1, 10, ms(1)),
		msg(1, 0, 10, ms(2)),
		msg(0, 2, 10, ms(500)),
		msg(2, 0, 10, ms(501)),
	}
	mats, err := PhaseMatrices(spans, 3, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 2 {
		t.Fatalf("%d phase matrices, want 2", len(mats))
	}
	if _, b := mats[0].At(0, 1); b != 10 {
		t.Fatalf("phase 0 bytes 0->1 = %d, want 10", b)
	}
	if _, b := mats[1].At(0, 2); b != 10 {
		t.Fatalf("phase 1 bytes 0->2 = %d, want 10", b)
	}
	drifts, err := PhaseDrifts(mats)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || drifts[0] != 2 {
		t.Fatalf("drifts = %v, want [2]", drifts)
	}
	// The inclusive trigger would have re-reordered at the boundary.
	if !Drifted(drifts[0], 2) {
		t.Fatal("phase boundary at drift 2 must trigger at threshold 2")
	}
}

// TestPhaseMatricesSumsPairs pins the fold of one phase: messages on the
// same ordered pair sum in count and bytes, the reverse direction is its
// own entry, and nothing else is set.
func TestPhaseMatricesSumsPairs(t *testing.T) {
	spans := []telemetry.Span{
		msg(0, 1, 10, ms(1)),
		msg(0, 1, 5, ms(1)),
		msg(1, 0, 7, ms(2)),
	}
	mats, err := PhaseMatrices(spans, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 1 {
		t.Fatalf("%d phase matrices, want 1", len(mats))
	}
	if c, b := mats[0].At(0, 1); c != 2 || b != 15 {
		t.Fatalf("entry 0->1 = (%d msgs, %d bytes), want (2, 15)", c, b)
	}
	if c, b := mats[0].At(1, 0); c != 1 || b != 7 {
		t.Fatalf("entry 1->0 = (%d msgs, %d bytes), want (1, 7)", c, b)
	}
	if nnz := mats[0].NNZ(); nnz != 2 {
		t.Fatalf("%d entries set, want 2", nnz)
	}
}

func TestPhaseMatricesErrors(t *testing.T) {
	if _, err := PhaseMatrices(nil, 0, time.Millisecond); err == nil {
		t.Fatal("non-positive world should error")
	}
	if _, err := PhaseMatrices([]telemetry.Span{msg(9, 0, 1, 0)}, 2, time.Millisecond); err == nil {
		t.Fatal("out-of-range source should error")
	}
	if _, err := PhaseMatrices([]telemetry.Span{msg(0, -1, 1, 0)}, 2, time.Millisecond); err == nil {
		t.Fatal("out-of-range destination should error")
	}
	if ds, err := PhaseDrifts(nil); err != nil || ds != nil {
		t.Fatalf("drifts of no phases = %v, %v; want nil, nil", ds, err)
	}
}

// TestMessagePhases pins the quiet-gap split: the order is by start time
// (stable), the gap test is inclusive, a non-positive quiet is one phase,
// and spans of any other kind neither join nor split phases.
func TestMessagePhases(t *testing.T) {
	other := func(k telemetry.Kind, t time.Duration) telemetry.Span {
		return telemetry.Span{Kind: k, Start: int64(t), End: int64(t), Src: -1, Dst: -1, Ctx: -1}
	}
	cases := []struct {
		name  string
		spans []telemetry.Span
		quiet time.Duration
		want  []int // phase sizes
	}{
		{"empty", nil, ms(1), nil},
		{"single-message", []telemetry.Span{at(ms(7))}, time.Nanosecond, []int{1}},
		{"three-phases", []telemetry.Span{at(ms(1)), at(ms(2)), at(ms(3)), at(ms(100)), at(ms(101)), at(ms(500))},
			50 * time.Millisecond, []int{3, 2, 1}},
		{"unsorted-input", []telemetry.Span{at(ms(500)), at(ms(2)), at(ms(101)), at(ms(1)), at(ms(100)), at(ms(3))},
			50 * time.Millisecond, []int{3, 2, 1}},
		{"exact-gap-splits", []telemetry.Span{at(ms(0)), at(ms(10)), at(ms(20))}, ms(10), []int{1, 1, 1}},
		{"sub-quiet-gaps-join", []telemetry.Span{at(ms(0)), at(ms(10)), at(ms(20))}, ms(10) + time.Nanosecond, []int{3}},
		{"zero-quiet", []telemetry.Span{at(ms(1)), at(ms(1)), at(ms(900))}, 0, []int{3}},
		{"negative-quiet", []telemetry.Span{at(ms(1)), at(ms(500))}, -time.Second, []int{2}},
		// Were the collective and wait spans messages, every gap would be
		// under quiet and the run one phase.
		{"non-message-spans-ignored", []telemetry.Span{at(ms(1)), other(telemetry.KindCollective, ms(50)),
			other(telemetry.KindWait, ms(100)), at(ms(150)), other(telemetry.KindEvent, ms(200))}, ms(100), []int{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.spans)
			phases := messagePhases(tc.spans, tc.quiet)
			var sizes []int
			for i, ph := range phases {
				sizes = append(sizes, len(ph))
				for k, s := range ph {
					if s.Kind != telemetry.KindMessage {
						t.Fatalf("phase %d holds a %v span", i, s.Kind)
					}
					if k > 0 && s.Start < ph[k-1].Start {
						t.Fatalf("phase %d not chronological: %v", i, ph)
					}
				}
			}
			if !slices.Equal(sizes, tc.want) {
				t.Fatalf("phase sizes %v, want %v", sizes, tc.want)
			}
			if !slices.Equal(tc.spans, in) {
				t.Fatal("messagePhases modified its input")
			}
		})
	}
}

// TestPhaseMatricesFromTelemetryWorld reads phases from the message spans
// of a real run: a p2p ring, a 100 ms compute gap, then Bcast, Allreduce
// and Barrier, with no monitoring gather in the window. The gap splits the
// spans into exactly two phases, the first holding the six ring sends, and
// the two phases sum to the pml counter matrix entry for entry — the span
// stream and the counters see the same decomposed messages.
func TestPhaseMatricesFromTelemetryWorld(t *testing.T) {
	const np = 6
	tel := telemetry.New()
	w, err := mpi.NewWorld(netsim.PlaFRIM(1), np, mpi.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		if err := c.Send((c.Rank()+1)%np, 0, make([]byte, 64*(c.Rank()+1))); err != nil {
			return err
		}
		if _, err := c.Recv((c.Rank()-1+np)%np, 0, nil); err != nil {
			return err
		}
		c.Proc().Compute(100 * time.Millisecond)
		if err := c.Bcast(make([]byte, 4096), 2); err != nil {
			return err
		}
		if err := c.Allreduce(make([]byte, 1024), make([]byte, 1024), mpi.Byte, mpi.OpMax); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	mats, err := PhaseMatrices(tel.Spans(), np, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 2 {
		t.Fatalf("%d phases, want 2", len(mats))
	}
	if nnz := mats[0].NNZ(); nnz != np {
		t.Fatalf("first phase has %d entries, want the %d ring sends", nnz, np)
	}
	for r := 0; r < np; r++ {
		if c, b := mats[0].At(r, (r+1)%np); c != 1 || b != uint64(64*(r+1)) {
			t.Fatalf("ring send %d->%d = (%d msgs, %d bytes), want (1, %d)", r, (r+1)%np, c, b, 64*(r+1))
		}
	}

	wantCnt, wantByt := counterMatrix(w, np)
	for src := 0; src < np; src++ {
		for dst := 0; dst < np; dst++ {
			c0, b0 := mats[0].At(src, dst)
			c1, b1 := mats[1].At(src, dst)
			if c0+c1 != wantCnt[src*np+dst] || b0+b1 != wantByt[src*np+dst] {
				t.Fatalf("pair %d->%d: phases carry %d+%d msgs, %d+%d bytes; pml counters %d msgs, %d bytes",
					src, dst, c0, c1, b0, b1, wantCnt[src*np+dst], wantByt[src*np+dst])
			}
		}
	}
}

// TestPhaseMatricesAgreeWithMonitoring folds a real ring-plus-Barrier run
// into one phase (quiet ≤ 0) and checks it against the pml counters: the
// post-mortem and online views of the same traffic carry the same matrix.
func TestPhaseMatricesAgreeWithMonitoring(t *testing.T) {
	const np = 4
	tel := telemetry.New()
	w, err := mpi.NewWorld(netsim.PlaFRIM(1), np, mpi.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		if err := c.Send((c.Rank()+1)%np, 0, make([]byte, 100*(c.Rank()+1))); err != nil {
			return err
		}
		if _, err := c.Recv((c.Rank()-1+np)%np, 0, nil); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	mats, err := PhaseMatrices(tel.Spans(), np, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 1 {
		t.Fatalf("%d phases, want 1", len(mats))
	}
	wantCnt, wantByt := counterMatrix(w, np)
	for src := 0; src < np; src++ {
		for dst := 0; dst < np; dst++ {
			if c, b := mats[0].At(src, dst); c != wantCnt[src*np+dst] || b != wantByt[src*np+dst] {
				t.Fatalf("pair %d->%d: phase carries %d msgs, %d bytes; pml counters %d msgs, %d bytes",
					src, dst, c, b, wantCnt[src*np+dst], wantByt[src*np+dst])
			}
		}
	}
}

// counterMatrix sums every rank's pml counters over all classes into flat
// row-major count and byte matrices.
func counterMatrix(w *mpi.World, np int) (cnt, byt []uint64) {
	cnt, byt = make([]uint64, np*np), make([]uint64, np*np)
	c, b := make([]uint64, np), make([]uint64, np)
	for src := 0; src < np; src++ {
		for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
			w.Proc(src).Monitor().Counts(cl, c)
			w.Proc(src).Monitor().Bytes(cl, b)
			for dst := range c {
				cnt[src*np+dst] += c[dst]
				byt[src*np+dst] += b[dst]
			}
		}
	}
	return cnt, byt
}
