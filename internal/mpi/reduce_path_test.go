package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mpimon/internal/faults"
	"mpimon/internal/netsim"
)

// Tests of the reduction data path: every reducing collective folds its
// peers' payloads straight from the pooled message buffers (recvReduceOn),
// so they are checked here together — results against the scalar oracle,
// argument validation, the short-contribution error, message ownership on
// the error paths and the steady-state allocation rate.

// reducingCollectives is every collective that folds payloads; call runs it
// and returns the receive buffer it used. The rooted ones use root 2 so the
// virtual-rank rotation is exercised.
var reducingCollectives = []struct {
	name string
	root int // rank whose recv is significant, -1 for all
	call func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error)
}{
	{"reduce", 2, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.Reduce(send, recv, dt, op, 2)
	}},
	{"reduce.binomial", 2, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.ReduceBinomial(send, recv, dt, op, 2)
	}},
	{"allreduce", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.Allreduce(send, recv, dt, op)
	}},
	{"allreduce.rd", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.AllreduceRD(send, recv, dt, op)
	}},
	{"allreduce.ring", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.AllreduceRing(send, recv, dt, op)
	}},
	{"allreduce.rab", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.AllreduceRab(send, recv, dt, op)
	}},
	{"reduce_scatter_block", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send)/c.Size())
		return recv, c.ReduceScatterBlock(send, recv, dt, op)
	}},
	{"scan", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.Scan(send, recv, dt, op)
	}},
	{"exscan", -1, func(c *Comm, send []byte, dt Datatype, op Op) ([]byte, error) {
		recv := make([]byte, len(send))
		return recv, c.Exscan(send, recv, dt, op)
	}},
}

// contribution is rank's payload of elems dt elements: random bits for the
// integer types, small whole numbers for Float64 so that sums are exact in
// any association order and no NaN appears.
func contribution(rank, elems int, dt Datatype) []byte {
	rng := rand.New(rand.NewSource(int64(rank)*31 + int64(dt)))
	if dt == Float64 {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(rng.Intn(2001) - 1000)
		}
		return EncodeFloat64s(vals)
	}
	b := make([]byte, elems*dt.Size())
	rng.Read(b)
	return b
}

// TestReducingCollectivesMatchOracle runs every reducing collective with
// every datatype and op on a group that is not a power of two — so the
// trees are ragged, the fold steps run and the ring blocks are uneven — and
// compares each result with the scalar oracle's fold of the same payloads.
func TestReducingCollectivesMatchOracle(t *testing.T) {
	const np, elems = 7, 3 * 7
	for name, eng := range testEngines(t) {
		for _, dt := range allDatatypes {
			for _, op := range allOps {
				// prefix[r] is the oracle's fold of ranks 0…r.
				prefix := make([][]byte, np)
				for r := range prefix {
					prefix[r] = contribution(r, elems, dt)
					if r > 0 {
						acc := append([]byte(nil), prefix[r-1]...)
						scalarReduceInto(acc, prefix[r], dt, op)
						prefix[r] = acc
					}
				}
				total, blk := prefix[np-1], len(prefix[0])/np
				w := newEngineWorld(t, np, eng)
				run(t, w, func(c *Comm) error {
					rank := c.Rank()
					for _, rc := range reducingCollectives {
						got, err := rc.call(c, contribution(rank, elems, dt), dt, op)
						if err != nil {
							return fmt.Errorf("%s: %w", rc.name, err)
						}
						want := total
						switch {
						case rc.root >= 0 && rank != rc.root:
							continue
						case rc.name == "reduce_scatter_block":
							want = total[rank*blk : (rank+1)*blk]
						case rc.name == "scan":
							want = prefix[rank]
						case rc.name == "exscan" && rank == 0:
							want = make([]byte, len(total)) // untouched
						case rc.name == "exscan":
							want = prefix[rank-1]
						}
						if !bytes.Equal(got, want) {
							return fmt.Errorf("%s %s %v %v rank %d: got %x, want %x", name, rc.name, dt, op, rank, got, want)
						}
					}
					return nil
				})
			}
		}
	}
}

// TestReduceRejectsBadArgsOnEveryRank: an unknown op used to panic inside
// whichever rank folded first while the leaves had already sent and
// returned nil, and an unknown datatype or a ragged buffer failed on the
// folding ranks only. Every member now rejects them before its first
// message — no clock moves, nothing is queued.
func TestReduceRejectsBadArgsOnEveryRank(t *testing.T) {
	bad := []struct {
		what  string
		bytes int
		dt    Datatype
		op    Op
	}{
		{"unknown op", 32, Int64, Op(7)},
		{"negative op", 32, Int64, Op(-1)},
		{"unknown datatype", 32, Datatype(9), OpSum},
		{"ragged buffer", 36, Int64, OpSum},
	}
	w := newTestWorld(t, 4)
	run(t, w, func(c *Comm) error {
		for _, b := range bad {
			for _, rc := range reducingCollectives {
				if _, err := rc.call(c, make([]byte, b.bytes), b.dt, b.op); err == nil {
					return fmt.Errorf("rank %d: %s accepted %s", c.Rank(), rc.name, b.what)
				}
			}
		}
		win, err := c.CreateWin(make([]byte, 32))
		if err != nil {
			return err
		}
		for _, b := range bad {
			if err := win.Accumulate(0, 0, make([]byte, b.bytes), b.dt, b.op); err == nil {
				return fmt.Errorf("rank %d: accumulate accepted %s", c.Rank(), b.what)
			}
		}
		return win.Free()
	})
	for r, p := range w.procs {
		if n := p.queue.pending(); n != 0 {
			t.Errorf("rank %d has %d messages queued after rejected calls", r, n)
		}
	}
}

// TestReduceShortContribution: a child that contributes fewer bytes than
// its parent used to be reduced against trailing zeros without a word. The
// fold now compares the message with the accumulator and the receiving rank
// reports the mismatch.
func TestReduceShortContribution(t *testing.T) {
	for _, rc := range reducingCollectives {
		if rc.name == "reduce_scatter_block" {
			continue // a short send there is a short block for every peer: covered by its own validation test
		}
		w := newTestWorld(t, 4, WithEngine(EngineEvent))
		err := w.Run(func(c *Comm) error {
			send := make([]byte, 16)
			if c.Rank() == 3 {
				send = send[:8]
			}
			_, err := rc.call(c, send, Int64, OpSum)
			return err
		})
		if err == nil || !(strings.Contains(err.Error(), "differ in length") || strings.Contains(err.Error(), "exscan prefix has")) {
			t.Errorf("%s with a short contribution from rank 3: %v, want a length mismatch", rc.name, err)
		}
	}
}

// TestReduceRootChecksRecvBeforeReceiving: the root's recv-length check runs
// ahead of its first receive, so a bad recv costs the root no virtual time
// and leaves its children's messages unconsumed.
func TestReduceRootChecksRecvBeforeReceiving(t *testing.T) {
	for _, binomial := range []bool{false, true} {
		w := newTestWorld(t, 4, WithEngine(EngineEvent))
		err := w.Run(func(c *Comm) error {
			send, recv := make([]byte, 16), make([]byte, 8)
			reduce := c.Reduce
			if binomial {
				reduce = c.ReduceBinomial
			}
			err := reduce(send, recv, Int64, OpSum, 0)
			if c.Rank() == 0 && c.p.clock != 0 {
				t.Errorf("binomial=%v: root's clock is %d after a rejected reduce, want 0", binomial, c.p.clock)
			}
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "differ in length") {
			t.Errorf("binomial=%v: reduce with an 8-byte root recv for 16-byte sends: %v", binomial, err)
		}
	}
}

// TestReduceErrorPathsReleaseOnce drives the reducing collectives into
// their error paths — a length mismatch, a short first child, a
// communicator revoked mid-reduce, every message dropped by the fault
// injector — and checks through the pool ledger that each pooled message,
// the forwarded accumulators included, is released exactly once. Run under
// -race (make race): a release before the fold has finished reading m.data
// is a race on the recycled array.
func TestReduceErrorPathsReleaseOnce(t *testing.T) {
	const np, payload = 5, 4000 // payload and its half split into np blocks of whole elements
	scenarios := []struct {
		name string
		opts []Option
		// body wraps one collective call of one rank; root is the
		// collective's (0 for those without one).
		body func(c *Comm, root int, call func(send []byte) error) error
		want func(err error) bool
	}{
		{"length mismatch", nil, func(c *Comm, _ int, call func([]byte) error) error {
			send := make([]byte, payload)
			if c.Rank() == np-1 {
				send = send[:payload/2]
			}
			return call(send)
		}, func(err error) bool {
			return err != nil && (strings.Contains(err.Error(), "differ in length") || strings.Contains(err.Error(), "prefix has"))
		}},
		{"short first child", nil, func(c *Comm, root int, call func([]byte) error) error {
			// Virtual rank 3 is the first child of virtual rank 1 in the
			// binary tree and the only child of virtual rank 2 in the
			// binomial one: its parent has drawn the accumulator its fold
			// would write when that fold fails.
			send := make([]byte, payload)
			if c.Rank() == (root+3)%np {
				send = send[:payload/2]
			}
			return call(send)
		}, func(err error) bool {
			return err != nil && (strings.Contains(err.Error(), "differ in length") || strings.Contains(err.Error(), "prefix has"))
		}},
		{"revoked mid-reduce", nil, func(c *Comm, _ int, call func([]byte) error) error {
			// The last rank revokes instead of taking part: whoever waits
			// for it, directly or not, fails with ErrRevoked while holding
			// its accumulator.
			if c.Rank() == np-1 {
				return c.Revoke()
			}
			if err := call(make([]byte, payload)); err != nil && !errors.Is(err, ErrRevoked) {
				return err
			}
			return nil
		}, func(err error) bool { return err == nil }},
		{"every message dropped", []Option{WithFaultPlan(&faults.Plan{Links: []faults.LinkRule{{SrcNode: -1, DstNode: -1, DropProb: 1}}})},
			func(c *Comm, _ int, call func([]byte) error) error { return call(make([]byte, payload)) },
			func(err error) bool { return errors.Is(err, ErrDeadlock) }},
	}
	for _, sc := range scenarios {
		for _, rc := range reducingCollectives {
			t.Run(sc.name+"/"+rc.name, func(t *testing.T) {
				ledger := tracePool(t)
				opts := append([]Option{WithEngine(EngineEvent)}, sc.opts...)
				w := newTestWorld(t, np, opts...)
				err := w.Run(func(c *Comm) error {
					return sc.body(c, max(rc.root, 0), func(send []byte) error {
						_, err := rc.call(c, send, Int64, OpSum)
						return err
					})
				})
				if !sc.want(err) {
					t.Errorf("unexpected outcome %v", err)
				}
				ledger.requireBalanced(t, w)
			})
		}
	}
}

// TestReduceDataPathAllocs pins the steady-state allocation rate of the two
// reducing collectives of bench/'s coll-payload workload, at its shape:
// np=48 on PlaFRIM(2), Allreduce of 8 KiB (Byte, OpMax) and Reduce of
// 128 KiB (Uint64, OpSum). With every accumulator and every payload drawn
// from the pools, a round allocates next to nothing for the whole world —
// what remains (14 objects, 224 B) is message-queue bucket slices growing;
// the per-fold receive buffers this replaced cost ~190 objects and 13 MB.
func TestReduceDataPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const np, warm, rounds = 48, 3, 20
	// Pool hits are what is measured, so nothing may empty or bypass the
	// pools mid-measurement: no collection, and one P, because a sync.Pool
	// keeps a private slot per P that a Get on another P cannot reach.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := NewWorld(netsim.PlaFRIM(2), np, WithEngine(EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	var objects, size uint64
	run(t, w, func(c *Comm) error {
		arSend, arRecv := make([]byte, 8<<10), make([]byte, 8<<10)
		redSend := make([]byte, 128<<10)
		for i := range arSend {
			arSend[i] = byte(i * (c.Rank() + 1))
		}
		for i := 0; i < len(redSend); i += 8 {
			binary.LittleEndian.PutUint64(redSend[i:], uint64(i+c.Rank()))
		}
		var redRecv []byte
		if c.Rank() == 0 {
			redRecv = make([]byte, len(redSend))
		}
		// The barrier keeps the leaves of the reduce tree, which send and
		// return, from running rounds ahead of their parents: messages would
		// pile up in the queues and outrun the pools.
		round := func() error {
			if err := c.Allreduce(arSend, arRecv, Byte, OpMax); err != nil {
				return err
			}
			if err := c.Reduce(redSend, redRecv, Uint64, OpSum, 0); err != nil {
				return err
			}
			return c.Barrier()
		}
		for i := 0; i < warm; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		// Rank 0 reads the counters between barriers: the event engine runs
		// one rank at a time, so the delta is the whole world's.
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < rounds; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			objects, size = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			if want := uint64(np * (np - 1) / 2); binary.LittleEndian.Uint64(redRecv) != want {
				return fmt.Errorf("reduce result %d, want %d", binary.LittleEndian.Uint64(redRecv), want)
			}
		}
		return nil
	})
	t.Logf("%.1f objects, %.0f bytes per round", float64(objects)/rounds, float64(size)/rounds)
	if perRound := float64(objects) / rounds; perRound > 16 {
		t.Errorf("%.1f objects allocated per round for the whole world, want <= 16", perRound)
	}
	if perRound := float64(size) / rounds; perRound >= 4<<10 {
		t.Errorf("%.0f bytes allocated per round for the whole world, want < 4 KiB", perRound)
	}
}
