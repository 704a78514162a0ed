// Package coll is the collective-algorithm portfolio: a registry of the
// algorithm variants implemented by internal/mpi, explicit dispatch that
// runs a named variant, Run, which synthesizes the buffers for one call of
// a (operation, variant, size), and an autotuner that times every variant
// with one virtual-time measurement kernel (Measure) on the deterministic
// netsim cost model and picks the fastest per (operation, np, message
// size).
//
// Because netsim is deterministic, a pick and every comparison built on it
// are exact (see internal/exp/guidelines.go for the Hunold-style
// guideline checks, which time their mock-ups with the same kernel).
package coll

import (
	"fmt"

	"mpimon/internal/mpi"
)

// Op identifies a collective operation with more than one implementation.
type Op string

const (
	OpAllreduce Op = "allreduce"
	OpBcast     Op = "bcast"
	OpAllgather Op = "allgather"
	OpReduce    Op = "reduce"
	OpAlltoallv Op = "alltoallv"
)

// Ops lists every operation the layer dispatches, in stable order.
func Ops() []Op {
	return []Op{OpAllreduce, OpBcast, OpAllgather, OpReduce, OpAlltoallv}
}

// Algorithm names one implementation of an operation. Default is valid
// for every operation and maps to the algorithm internal/mpi runs when no
// selection layer is involved.
type Algorithm string

const (
	Default  Algorithm = "default"
	RD       Algorithm = "rd"       // recursive doubling (allreduce, allgather)
	Ring     Algorithm = "ring"     // ring reduce-scatter + allgather (allreduce)
	Rab      Algorithm = "rab"      // Rabenseifner: recursive-halving RS + RD allgather
	GB       Algorithm = "gb"       // gather + bcast composition (allgather)
	SAG      Algorithm = "sag"      // binomial scatter + ring allgather (bcast)
	LSAG     Algorithm = "lsag"     // linear scatter + ring allgather (bcast)
	Binomial Algorithm = "binomial" // binomial tree (reduce)
	Bruck    Algorithm = "bruck"    // log-round packed exchange (alltoallv)
)

// algorithms maps each operation to its variants; Default is always
// first so tables and sweeps treat it as the baseline.
var algorithms = map[Op][]Algorithm{
	OpAllreduce: {Default, RD, Ring, Rab},
	OpBcast:     {Default, SAG, LSAG},
	OpAllgather: {Default, RD, GB},
	OpReduce:    {Default, Binomial},
	OpAlltoallv: {Default, Bruck},
}

// Algorithms returns the variants of op, Default first. The slice is a
// copy; callers may reorder it.
func Algorithms(op Op) []Algorithm {
	return append([]Algorithm(nil), algorithms[op]...)
}

// Allreduce runs the named allreduce variant.
func Allreduce(c *mpi.Comm, alg Algorithm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	switch alg {
	case Default:
		return c.Allreduce(send, recv, dt, op)
	case RD:
		return c.AllreduceRD(send, recv, dt, op)
	case Ring:
		return c.AllreduceRing(send, recv, dt, op)
	case Rab:
		return c.AllreduceRab(send, recv, dt, op)
	}
	return badAlg(OpAllreduce, alg)
}

// Bcast runs the named bcast variant.
func Bcast(c *mpi.Comm, alg Algorithm, buf []byte, root int) error {
	switch alg {
	case Default:
		return c.Bcast(buf, root)
	case SAG:
		return c.BcastSAG(buf, root)
	case LSAG:
		// Linear scatter + ring allgather: unlike SAG's binomial
		// scatter, whose first hop moves half the buffer and stalls in
		// rendezvous past the eager limit, the root here pays only the
		// per-message send overhead as long as a single block stays
		// eager. Needs a buffer divisible by the rank count, like SAG.
		n := c.Size()
		if len(buf)%n != 0 {
			return fmt.Errorf("coll: lsag bcast needs a buffer divisible by %d ranks, got %d bytes", n, len(buf))
		}
		blk := len(buf) / n
		part := make([]byte, blk)
		if err := c.Scatter(buf, part, root); err != nil {
			return err
		}
		return c.Allgather(part, buf)
	}
	return badAlg(OpBcast, alg)
}

// Allgather runs the named allgather variant.
func Allgather(c *mpi.Comm, alg Algorithm, send, recv []byte) error {
	switch alg {
	case Default:
		return c.Allgather(send, recv)
	case RD:
		return c.AllgatherRD(send, recv)
	case GB:
		// The gather+bcast composition: the Hunold mock-up promoted to a
		// first-class algorithm, because it beats the ring at
		// latency-bound points (small blocks, non-power-of-two np) where
		// the ring pays n-1 sequential hops against two log-depth trees.
		if err := c.Gather(send, recv, 0); err != nil {
			return err
		}
		return c.Bcast(recv, 0)
	}
	return badAlg(OpAllgather, alg)
}

// Reduce runs the named reduce variant.
func Reduce(c *mpi.Comm, alg Algorithm, send, recv []byte, dt mpi.Datatype, op mpi.Op, root int) error {
	switch alg {
	case Default:
		return c.Reduce(send, recv, dt, op, root)
	case Binomial:
		return c.ReduceBinomial(send, recv, dt, op, root)
	}
	return badAlg(OpReduce, alg)
}

// Alltoallv runs the named alltoallv variant.
func Alltoallv(c *mpi.Comm, alg Algorithm, send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	switch alg {
	case Default:
		return c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls)
	case Bruck:
		return c.AlltoallvBruck(send, scounts, sdispls, recv, rcounts, rdispls)
	}
	return badAlg(OpAlltoallv, alg)
}

func badAlg(op Op, alg Algorithm) error {
	return fmt.Errorf("coll: no algorithm %q for %s (have %v)", alg, op, algorithms[op])
}

// Run executes one collective of the given operation/variant with size
// total payload bytes, synthesizing the buffers — the body the autotuner
// and the guideline checks hand to Measure. For alltoallv the payload
// splits evenly across destinations (remainder to low ranks).
func Run(c *mpi.Comm, op Op, alg Algorithm, size int) error {
	switch op {
	case OpAllreduce:
		send := make([]byte, size)
		recv := make([]byte, size)
		return Allreduce(c, alg, send, recv, mpi.Byte, mpi.OpSum)
	case OpBcast:
		return Bcast(c, alg, make([]byte, size), 0)
	case OpAllgather:
		n := c.Size()
		per := size / n
		return Allgather(c, alg, make([]byte, per), make([]byte, per*n))
	case OpReduce:
		send := make([]byte, size)
		recv := make([]byte, size)
		return Reduce(c, alg, send, recv, mpi.Byte, mpi.OpSum, 0)
	case OpAlltoallv:
		n := c.Size()
		blk := func(i int) int {
			b := size / n
			if i < size%n {
				b++
			}
			return b
		}
		scounts := make([]int, n)
		sdispls := make([]int, n)
		rcounts := make([]int, n)
		rdispls := make([]int, n)
		soff, roff := 0, 0
		for i := 0; i < n; i++ {
			scounts[i] = blk(i) // what I send to i
			sdispls[i] = soff
			soff += scounts[i]
			rcounts[i] = blk(c.Rank()) // what i sends to me
			rdispls[i] = roff
			roff += rcounts[i]
		}
		return Alltoallv(c, alg, make([]byte, soff), scounts, sdispls, make([]byte, roff), rcounts, rdispls)
	}
	return fmt.Errorf("coll: unknown operation %q", op)
}
