package cg

import (
	"fmt"
	"math"
	"time"

	"mpimon/internal/mpi"
)

// Mode says whether a run holds matrix data.
type Mode int

// Run modes. Both run the same kernel: the same messages, in the same
// order, and the same compute charges from the same statements.
const (
	// Real builds the matrix and executes the complete NPB CG numerics,
	// so it can verify zeta.
	Real Mode = iota
	// Skeleton runs the kernel without matrix data, for classes too large
	// to compute (the paper's B-D runs at 64-256 ranks): no vector is
	// allocated, every message is size-only, and the matvec's flop count is
	// the class's NPB estimate (Class.EstimatedNonzeros) instead of the
	// local nonzeros.
	Skeleton
)

// Config configures one CG run; the zero value of every field but Class
// means full numerics with the class's iteration counts.
type Config struct {
	Class Class
	Mode  Mode
	// Niter overrides the class's outer iteration count when positive
	// (skeleton sweeps shorten the run; ratios are unaffected because
	// every iteration has the identical pattern).
	Niter int
	// CGIterations overrides the inner conjugate-gradient iteration
	// count (default 25, the NPB cgitmax).
	CGIterations int
	// SkipInit skips the untimed initialization iteration. The paper's
	// reordering monitors the init iteration and then resumes with the
	// timed ones on the optimized communicator; SkipInit lets a caller
	// split the run at exactly that point without duplicating work.
	SkipInit bool
}

// Result is one rank's outcome. Zeta, RNorm and Verified come from the
// numerics, so they keep their zero values in Skeleton mode.
type Result struct {
	Zeta     float64
	RNorm    float64
	Verified bool // zeta within 1e-10 of the class reference
	// TotalTime and MPITime cover the timed section (after the untimed
	// init iteration), in virtual time, for this rank.
	TotalTime time.Duration
	MPITime   time.Duration
}

// CG message tags.
const (
	tagRowRed = 100 + iota
	tagTrans
	tagNorm
)

// Run executes the CG benchmark on the communicator. Collective: every
// member must call it with the same configuration. The communicator size
// must be a power of two.
func Run(c *mpi.Comm, cfg Config) (Result, error) {
	g, err := NewGrid(c.Size(), cfg.Class.NA)
	if err != nil {
		return Result{}, err
	}
	cgit := cfg.CGIterations
	if cgit <= 0 {
		cgit = 25
	}
	niter := cfg.Niter
	if niter <= 0 {
		niter = cfg.Class.Niter
	}

	rn := newRunner(c, g, cfg.Class, cfg.Mode, cgit)

	// Untimed initialization iteration (NPB does one full conj_grad to
	// touch all code paths, then resets x).
	if !cfg.SkipInit {
		if _, err := rn.conjGrad(); err != nil {
			return Result{}, err
		}
		if _, err := rn.powerStep(); err != nil {
			return Result{}, err
		}
		rn.setX(1.0)
	}

	p := c.Proc()
	t0, m0 := p.Clock(), p.MPITime()
	var rnorm, norm1 float64
	for it := 1; it <= niter; it++ {
		if rnorm, err = rn.conjGrad(); err != nil {
			return Result{}, err
		}
		if norm1, err = rn.powerStep(); err != nil {
			return Result{}, err
		}
	}
	res := Result{TotalTime: p.Clock() - t0, MPITime: p.MPITime() - m0}
	if cfg.Mode == Real {
		res.Zeta = cfg.Class.Shift + 1.0/norm1
		res.RNorm = rnorm
		res.Verified = cfg.Class.ZetaVerify != 0 && niter == cfg.Class.Niter &&
			math.Abs(res.Zeta-cfg.Class.ZetaVerify) <= 1e-10
	}
	return res, nil
}

// runner holds one rank's CG state. In Skeleton mode a is nil and so are
// the vectors: every loop over a vector is empty, the local product is
// skipped and the message helpers send size-only messages of the same
// length, so both modes charge and send through the same statements.
type runner struct {
	c    *mpi.Comm
	cgit int

	rs           int // first global row of the row block
	nLocal       int // column-segment length (vector storage)
	nRows        int // row-block length (matvec output)
	peers        []int
	transSender  int
	transTargets []TransposeTarget

	a             *Matrix
	x, z, p, q, r []float64
	w             []float64
	flopsPerMV    float64
}

func newRunner(c *mpi.Comm, g *Grid, cls Class, mode Mode, cgit int) *runner {
	me := c.Rank()
	pr, pc := g.ProcRow(me), g.ProcCol(me)
	rs, re, cs, ce := g.RowStart(pr), g.RowEnd(pr), g.ColStart(pc), g.ColEnd(pc)
	rn := &runner{
		c:            c,
		cgit:         cgit,
		rs:           rs,
		nLocal:       ce - cs,
		nRows:        re - rs,
		peers:        g.RowPeers(me),
		transSender:  g.TransposeSender(me),
		transTargets: g.TransposeTargets(me),
	}
	if mode == Skeleton {
		// No matrix: the matvec charges the NPB estimate of this rank's
		// share of the nonzeros.
		rn.flopsPerMV = 2 * float64(cls.EstimatedNonzeros()) / float64(g.NP)
		return rn
	}
	tran := tranSeed
	_ = randlc(&tran, amult) // the main program's initial zeta draw
	rn.a = Makea(cls, rs, re, cs, ce, &tran)
	rn.x = make([]float64, rn.nLocal)
	rn.z = make([]float64, rn.nLocal)
	rn.p = make([]float64, rn.nLocal)
	rn.q = make([]float64, rn.nLocal)
	rn.r = make([]float64, rn.nLocal)
	rn.w = make([]float64, rn.nRows)
	rn.setX(1.0)
	rn.flopsPerMV = 2 * float64(rn.a.NNZ())
	return rn
}

func (rn *runner) setX(v float64) {
	for j := range rn.x {
		rn.x[j] = v
	}
}

// sendrecv sends n doubles to peer and returns the n it sends back: v's
// values in Real mode, a size-only message (and nil) in Skeleton mode.
func (rn *runner) sendrecv(peer, tag int, v []float64, n int) ([]float64, error) {
	if rn.a == nil {
		_, err := rn.c.SendrecvN(peer, tag, 8*n, peer, tag)
		return nil, err
	}
	buf := make([]byte, 8*n)
	if _, err := rn.c.Sendrecv(peer, tag, mpi.EncodeFloat64s(v), peer, tag, buf); err != nil {
		return nil, err
	}
	return mpi.DecodeFloat64s(buf), nil
}

// reduceScalars sums vals elementwise across the processor row (hypercube
// exchange, one message of len(vals) doubles per stage) — the NPB scalar
// reduction pattern.
func (rn *runner) reduceScalars(vals []float64) error {
	for _, peer := range rn.peers {
		got, err := rn.sendrecv(peer, tagNorm, vals, len(vals))
		if err != nil {
			return err
		}
		for i, v := range got {
			vals[i] += v
		}
	}
	return nil
}

// matVec sets out = A v, the NPB matvec: the local product into w, summed
// across the processor row (recursive doubling, full-vector exchanges),
// then the transpose exchange that delivers this rank's column-block slice
// of the summed vector.
func (rn *runner) matVec(out, v []float64) error {
	c := rn.c
	me := c.Rank()
	if rn.a != nil {
		rn.a.MatVec(rn.w, v)
	}
	c.Proc().ComputeFlops(rn.flopsPerMV)
	for k, peer := range rn.peers {
		got, err := rn.sendrecv(peer, tagRowRed+k<<8, rn.w, rn.nRows)
		if err != nil {
			return err
		}
		for i, s := range got {
			rn.w[i] += s
		}
	}
	// Send slices to transpose targets, then receive ours.
	selfLo, selfHi := -1, -1
	for _, t := range rn.transTargets {
		lo, hi := t.Start-rn.rs, t.End-rn.rs
		if t.Rank == me {
			selfLo, selfHi = lo, hi
			continue
		}
		var err error
		if rn.a == nil {
			err = c.SendN(t.Rank, tagTrans, 8*(hi-lo))
		} else {
			err = c.Send(t.Rank, tagTrans, mpi.EncodeFloat64s(rn.w[lo:hi]))
		}
		if err != nil {
			return err
		}
	}
	if rn.transSender == me {
		if selfLo < 0 {
			return fmt.Errorf("cg: rank %d is its own transpose sender but holds no self slice", me)
		}
		if rn.a != nil {
			copy(out, rn.w[selfLo:selfHi])
		}
		return nil
	}
	if rn.a == nil {
		_, err := c.Recv(rn.transSender, tagTrans, nil)
		return err
	}
	buf := make([]byte, 8*len(out))
	if _, err := c.Recv(rn.transSender, tagTrans, buf); err != nil {
		return err
	}
	copy(out, mpi.DecodeFloat64s(buf))
	return nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// conjGrad runs one NPB conj_grad call: cgit inner iterations plus the
// final residual-norm evaluation. It returns ||x - A z||.
func (rn *runner) conjGrad() (float64, error) {
	p := rn.c.Proc()
	n := float64(rn.nLocal)
	for j := range rn.x {
		rn.q[j] = 0
		rn.z[j] = 0
		rn.r[j] = rn.x[j]
		rn.p[j] = rn.r[j]
	}
	rhoV := []float64{dot(rn.r, rn.r)}
	p.ComputeFlops(2 * n)
	if err := rn.reduceScalars(rhoV); err != nil {
		return 0, err
	}
	rho := rhoV[0]

	for it := 0; it < rn.cgit; it++ {
		if err := rn.matVec(rn.q, rn.p); err != nil {
			return 0, err
		}
		dV := []float64{dot(rn.p, rn.q)}
		p.ComputeFlops(2 * n)
		if err := rn.reduceScalars(dV); err != nil {
			return 0, err
		}
		alpha := rho / dV[0]
		for j := range rn.z {
			rn.z[j] += alpha * rn.p[j]
			rn.r[j] -= alpha * rn.q[j]
		}
		rho0 := rho
		rhoV[0] = dot(rn.r, rn.r)
		p.ComputeFlops(6 * n)
		if err := rn.reduceScalars(rhoV); err != nil {
			return 0, err
		}
		rho = rhoV[0]
		beta := rho / rho0
		for j := range rn.p {
			rn.p[j] = rn.r[j] + beta*rn.p[j]
		}
		p.ComputeFlops(2 * n)
	}

	// rnorm = ||x - A z||.
	if err := rn.matVec(rn.r, rn.z); err != nil {
		return 0, err
	}
	var sum float64
	for j := range rn.x {
		d := rn.x[j] - rn.r[j]
		sum += d * d
	}
	p.ComputeFlops(3 * n)
	sumV := []float64{sum}
	if err := rn.reduceScalars(sumV); err != nil {
		return 0, err
	}
	return math.Sqrt(sumV[0]), nil
}

// powerStep performs the outer power-method update: computes
// norm1 = x.z and norm2 = z.z (reduced together across the processor row,
// as in NPB), then sets x = z/||z||. It returns the reduced norm1.
func (rn *runner) powerStep() (float64, error) {
	p := rn.c.Proc()
	norms := []float64{dot(rn.x, rn.z), dot(rn.z, rn.z)}
	p.ComputeFlops(4 * float64(rn.nLocal))
	if err := rn.reduceScalars(norms); err != nil {
		return 0, err
	}
	inv := 1.0 / math.Sqrt(norms[1])
	for j := range rn.x {
		rn.x[j] = inv * rn.z[j]
	}
	p.ComputeFlops(float64(rn.nLocal))
	return norms[0], nil
}

// String returns a short description of the config.
func (cfg Config) String() string {
	mode := "real"
	if cfg.Mode == Skeleton {
		mode = "skeleton"
	}
	return fmt.Sprintf("cg class %s (%s)", cfg.Class.Name, mode)
}
