package coll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// pinMachine returns a contention-free machine with at least np cores:
// with Contention on, concurrent same-node senders race for NIC slots in
// wall-clock order under the goroutine engine — exactly the
// nondeterminism the cross-engine pin must exclude.
func pinMachine(np int) *netsim.Machine {
	var m *netsim.Machine
	switch {
	case np <= 48:
		m = netsim.PlaFRIM((np + 23) / 24)
	default:
		m = netsim.MultiSwitch(2, (np+47)/48)
	}
	m.Contention = false
	return m
}

// runPinned executes one collective of (op, alg) at np on the given
// engine with deterministic rank-dependent integer payloads, returning
// the world's state and each rank's result bytes.
func runPinned(t *testing.T, op Op, alg Algorithm, np int, engine string) (string, [][]byte) {
	t.Helper()
	var opts []mpi.Option
	if engine != "" {
		eng, err := mpi.EngineByName(engine)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, mpi.WithEngine(eng))
	}
	w, err := mpi.NewWorld(pinMachine(np), np, opts...)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]byte, np)
	err = w.Run(func(c *mpi.Comm) error {
		me := c.Rank()
		var out []byte
		var err error
		switch op {
		case OpAllreduce:
			// 12 int64s: at np=256 most ring/rab blocks are empty, the
			// non-power-of-two fold kicks in at np=48.
			vals := make([]int64, 12)
			for i := range vals {
				vals[i] = int64((me + 1) * (i + 3))
			}
			send := encodeI64(vals)
			out = make([]byte, len(send))
			err = Allreduce(c, alg, send, out, mpi.Int64, mpi.OpSum)
		case OpBcast:
			out = make([]byte, 3*np) // divisible by np, as BcastSAG scatters
			if me == 1 {
				for i := range out {
					out[i] = byte(i*7 + 1)
				}
			}
			err = Bcast(c, alg, out, 1)
		case OpAllgather:
			send := []byte{byte(me), byte(me + 1), byte(me * 3)}
			out = make([]byte, len(send)*np)
			err = Allgather(c, alg, send, out)
		case OpReduce:
			vals := []int64{int64(me + 1), int64(2*me - 5), 7}
			send := encodeI64(vals)
			out = make([]byte, len(send))
			err = Reduce(c, alg, send, out, mpi.Int64, mpi.OpSum, 0)
		case OpAlltoallv:
			sc := make([]int, np)
			sd := make([]int, np)
			rc := make([]int, np)
			rd := make([]int, np)
			soff, roff := 0, 0
			for j := 0; j < np; j++ {
				sc[j] = (me + j) % 3
				sd[j] = soff
				soff += sc[j]
				rc[j] = (j + me) % 3
				rd[j] = roff
				roff += rc[j]
			}
			send := make([]byte, soff)
			for j := 0; j < np; j++ {
				for k := 0; k < sc[j]; k++ {
					send[sd[j]+k] = byte(1 + (me+2*j+3*k)%251)
				}
			}
			out = make([]byte, roff)
			err = Alltoallv(c, alg, send, sc, sd, out, rc, rd)
		default:
			err = fmt.Errorf("unknown op %q", op)
		}
		results[me] = out
		return err
	})
	if err != nil {
		t.Fatalf("%s/%s np=%d engine=%s: %v", op, alg, np, engine, err)
	}
	return w.State(), results
}

func encodeI64(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// TestPortfolioPinnedAtScale is the tentpole's acceptance pin: every
// algorithm of every operation, at np ∈ {4, 48, 256}, produces (a)
// bit-identical world states (clocks, matrices, NIC counters) on
// the goroutine and event engines, and (b) result buffers bit-identical
// to the default algorithm's. np=48 and np=256 cover non-power-of-two
// and multi-switch scale; integer payloads make cross-algorithm
// reduction order irrelevant.
func TestPortfolioPinnedAtScale(t *testing.T) {
	nps := []int{4, 48, 256}
	if testing.Short() {
		nps = []int{4, 48}
	}
	for _, np := range nps {
		for _, op := range Ops() {
			var refResults [][]byte
			for _, alg := range Algorithms(op) {
				stateG, resG := runPinned(t, op, alg, np, "")
				stateE, resE := runPinned(t, op, alg, np, "event")
				if d := golden.Diff(stateE, stateG); d != "" {
					t.Fatalf("%s/%s np=%d: event engine (got) vs goroutine engine (want): %s", op, alg, np, d)
				}
				if !reflect.DeepEqual(resG, resE) {
					t.Fatalf("%s/%s np=%d: results differ across engines", op, alg, np)
				}
				if alg == Default {
					refResults = resG
					continue
				}
				for r := range resG {
					if !bytes.Equal(resG[r], refResults[r]) {
						t.Fatalf("%s/%s np=%d rank %d: result differs from default\n got:  %v\n want: %v",
							op, alg, np, r, resG[r], refResults[r])
					}
				}
			}
		}
	}
}
