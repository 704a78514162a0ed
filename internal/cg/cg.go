package cg

import (
	"fmt"
	"math"
	"time"

	"mpimon/internal/mpi"
)

// Mode selects between full numerics and communication skeleton.
type Mode int

// Run modes.
const (
	// Real executes the complete NPB CG numerics and can verify zeta.
	Real Mode = iota
	// Skeleton replays the exact communication schedule and message
	// volumes of the class without matrix data: arithmetic is replaced
	// by a flop-count clock model. Use it for classes too large to
	// compute (the paper's B-D runs at 64-256 ranks).
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

// Result is one rank's outcome.
type Result struct {
	Zeta     float64
	RNorm    float64
	Verified bool // zeta within 1e-10 of the class reference (Real mode)
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

	rn, err := newRunner(c, g, cfg.Class, cfg.Mode, cgit)
	if err != nil {
		return Result{}, err
	}

	// Untimed initialization iteration (NPB does one full conj_grad to
	// touch all code paths, then resets x).
	if !cfg.SkipInit {
		if _, err := rn.conjGrad(); err != nil {
			return Result{}, err
		}
		if _, _, err := rn.powerStep(); err != nil {
			return Result{}, err
		}
		rn.setX(1.0)
	}

	p := c.Proc()
	t0, m0 := p.Clock(), p.MPITime()
	var zeta float64
	var rnorm float64
	for it := 1; it <= niter; it++ {
		rnorm, err = rn.conjGrad()
		if err != nil {
			return Result{}, err
		}
		norm1, _, err := rn.powerStep()
		if err != nil {
			return Result{}, err
		}
		zeta = cfg.Class.Shift + 1.0/norm1
	}
	res := Result{
		Zeta:      zeta,
		RNorm:     rnorm,
		TotalTime: p.Clock() - t0,
		MPITime:   p.MPITime() - m0,
	}
	if cfg.Mode == Real && cfg.Class.ZetaVerify != 0 && niter == cfg.Class.Niter {
		res.Verified = math.Abs(zeta-cfg.Class.ZetaVerify) <= 1e-10
	}
	return res, nil
}

// runner holds one rank's CG state.
type runner struct {
	c        *mpi.Comm
	g        *Grid
	cls      Class
	skeleton bool
	cgit     int

	rs, re, cs, ce int
	nLocal         int // column-segment length (vector storage)
	nRows          int // row-block length (matvec output)
	peers          []int
	transSender    int
	transTargets   []TransposeTarget

	a             *Matrix
	x, z, p, q, r []float64
	w             []float64
	flopsPerMV    float64
}

func newRunner(c *mpi.Comm, g *Grid, cls Class, mode Mode, cgit int) (*runner, error) {
	me := c.Rank()
	pr, pc := g.ProcRow(me), g.ProcCol(me)
	rn := &runner{
		c:            c,
		g:            g,
		cls:          cls,
		skeleton:     mode == Skeleton,
		cgit:         cgit,
		rs:           g.RowStart(pr),
		re:           g.RowEnd(pr),
		cs:           g.ColStart(pc),
		ce:           g.ColEnd(pc),
		peers:        g.RowPeers(me),
		transSender:  g.TransposeSender(me),
		transTargets: g.TransposeTargets(me),
	}
	rn.nLocal = rn.ce - rn.cs
	rn.nRows = rn.re - rn.rs
	if rn.skeleton {
		rn.flopsPerMV = 2 * float64(cls.EstimatedNonzeros()) / float64(g.NP)
		rn.setX(1.0)
		return rn, nil
	}
	tran := tranSeed
	_ = randlc(&tran, amult) // the main program's initial zeta draw
	rn.a = Makea(cls, rn.rs, rn.re, rn.cs, rn.ce, &tran)
	rn.x = make([]float64, rn.nLocal)
	rn.z = make([]float64, rn.nLocal)
	rn.p = make([]float64, rn.nLocal)
	rn.q = make([]float64, rn.nLocal)
	rn.r = make([]float64, rn.nLocal)
	rn.w = make([]float64, rn.nRows)
	rn.setX(1.0)
	rn.flopsPerMV = 2 * float64(rn.a.NNZ())
	return rn, nil
}

func (rn *runner) setX(v float64) {
	for j := range rn.x {
		rn.x[j] = v
	}
}

// reduceScalars sums vals elementwise across the processor row (hypercube
// exchange, one message of len(vals) doubles per stage) — the NPB scalar
// reduction pattern.
func (rn *runner) reduceScalars(vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for _, peer := range rn.peers {
		pk := mpi.EncodeFloat64s(vals)
		if _, err := rn.c.Sendrecv(peer, tagNorm, pk, peer, tagNorm, buf); err != nil {
			return err
		}
		got := mpi.DecodeFloat64s(buf)
		for i := range vals {
			vals[i] += got[i]
		}
	}
	return nil
}

// reduceScalarsSkeleton replays the same messages without data.
func (rn *runner) reduceScalarsSkeleton(n int) error {
	for _, peer := range rn.peers {
		if _, err := rn.c.SendrecvN(peer, tagNorm, 8*n, peer, tagNorm); err != nil {
			return err
		}
	}
	return nil
}

// rowSumAndTranspose sums w across the processor row (recursive doubling,
// full-vector exchanges) and delivers this rank's column-block slice of the
// summed vector into out — the NPB matvec epilogue: reduction over the grid
// row followed by the transpose exchange.
func (rn *runner) rowSumAndTranspose(out []float64) error {
	c := rn.c
	me := c.Rank()
	buf := make([]byte, 8*len(rn.w))
	for k, peer := range rn.peers {
		if _, err := c.Sendrecv(peer, tagRowRed+k<<8, mpi.EncodeFloat64s(rn.w), peer, tagRowRed+k<<8, buf); err != nil {
			return err
		}
		got := mpi.DecodeFloat64s(buf)
		for i := range rn.w {
			rn.w[i] += got[i]
		}
	}
	// Send slices to transpose targets, then receive ours.
	var selfSlice []float64
	for _, t := range rn.transTargets {
		lo, hi := t.Start-rn.rs, t.End-rn.rs
		if t.Rank == me {
			selfSlice = rn.w[lo:hi]
			continue
		}
		if err := c.Send(t.Rank, tagTrans, mpi.EncodeFloat64s(rn.w[lo:hi])); err != nil {
			return err
		}
	}
	if rn.transSender == me {
		if selfSlice == nil {
			return fmt.Errorf("cg: rank %d is its own transpose sender but holds no self slice", me)
		}
		copy(out, selfSlice)
		return nil
	}
	rbuf := make([]byte, 8*len(out))
	if _, err := c.Recv(rn.transSender, tagTrans, rbuf); err != nil {
		return err
	}
	copy(out, mpi.DecodeFloat64s(rbuf))
	return nil
}

// rowSumAndTransposeSkeleton replays the same messages with logical sizes.
func (rn *runner) rowSumAndTransposeSkeleton() error {
	c := rn.c
	me := c.Rank()
	for k, peer := range rn.peers {
		if _, err := c.SendrecvN(peer, tagRowRed+k<<8, 8*rn.nRows, peer, tagRowRed+k<<8); err != nil {
			return err
		}
	}
	for _, t := range rn.transTargets {
		if t.Rank == me {
			continue
		}
		if err := c.SendN(t.Rank, tagTrans, 8*(t.End-t.Start)); err != nil {
			return err
		}
	}
	if rn.transSender != me {
		if _, err := c.Recv(rn.transSender, tagTrans, nil); err != nil {
			return err
		}
	}
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
	if rn.skeleton {
		return 0, rn.conjGradSkeleton()
	}
	p := rn.c.Proc()
	n := rn.nLocal
	for j := 0; j < n; j++ {
		rn.q[j] = 0
		rn.z[j] = 0
		rn.r[j] = rn.x[j]
		rn.p[j] = rn.r[j]
	}
	rhoV := []float64{dot(rn.r, rn.r)}
	p.ComputeFlops(2 * float64(n))
	if err := rn.reduceScalars(rhoV); err != nil {
		return 0, err
	}
	rho := rhoV[0]

	for it := 0; it < rn.cgit; it++ {
		rn.a.MatVec(rn.w, rn.p)
		p.ComputeFlops(rn.flopsPerMV)
		if err := rn.rowSumAndTranspose(rn.q); err != nil {
			return 0, err
		}
		dV := []float64{dot(rn.p, rn.q)}
		p.ComputeFlops(2 * float64(n))
		if err := rn.reduceScalars(dV); err != nil {
			return 0, err
		}
		alpha := rho / dV[0]
		for j := 0; j < n; j++ {
			rn.z[j] += alpha * rn.p[j]
			rn.r[j] -= alpha * rn.q[j]
		}
		rho0 := rho
		rhoV[0] = dot(rn.r, rn.r)
		p.ComputeFlops(6 * float64(n))
		if err := rn.reduceScalars(rhoV); err != nil {
			return 0, err
		}
		rho = rhoV[0]
		beta := rho / rho0
		for j := 0; j < n; j++ {
			rn.p[j] = rn.r[j] + beta*rn.p[j]
		}
		p.ComputeFlops(2 * float64(n))
	}

	// rnorm = ||x - A z||.
	rn.a.MatVec(rn.w, rn.z)
	p.ComputeFlops(rn.flopsPerMV)
	if err := rn.rowSumAndTranspose(rn.r); err != nil {
		return 0, err
	}
	var sum float64
	for j := 0; j < n; j++ {
		d := rn.x[j] - rn.r[j]
		sum += d * d
	}
	p.ComputeFlops(3 * float64(n))
	sumV := []float64{sum}
	if err := rn.reduceScalars(sumV); err != nil {
		return 0, err
	}
	return math.Sqrt(sumV[0]), nil
}

func (rn *runner) conjGradSkeleton() error {
	p := rn.c.Proc()
	n := float64(rn.nLocal)
	p.ComputeFlops(2 * n)
	if err := rn.reduceScalarsSkeleton(1); err != nil {
		return err
	}
	for it := 0; it < rn.cgit; it++ {
		p.ComputeFlops(rn.flopsPerMV)
		if err := rn.rowSumAndTransposeSkeleton(); err != nil {
			return err
		}
		p.ComputeFlops(2 * n)
		if err := rn.reduceScalarsSkeleton(1); err != nil {
			return err
		}
		p.ComputeFlops(10 * n)
		if err := rn.reduceScalarsSkeleton(1); err != nil {
			return err
		}
	}
	p.ComputeFlops(rn.flopsPerMV)
	if err := rn.rowSumAndTransposeSkeleton(); err != nil {
		return err
	}
	p.ComputeFlops(3 * n)
	return rn.reduceScalarsSkeleton(1)
}

// powerStep performs the outer power-method update: computes
// norm1 = x.z and norm2 = z.z (reduced together across the processor row,
// as in NPB), then sets x = z/||z||. It returns the reduced norms.
func (rn *runner) powerStep() (norm1, norm2 float64, err error) {
	p := rn.c.Proc()
	if rn.skeleton {
		p.ComputeFlops(7 * float64(rn.nLocal))
		if err := rn.reduceScalarsSkeleton(2); err != nil {
			return 0, 0, err
		}
		return 1, 1, nil
	}
	vals := []float64{dot(rn.x, rn.z), dot(rn.z, rn.z)}
	p.ComputeFlops(4 * float64(rn.nLocal))
	if err := rn.reduceScalars(vals); err != nil {
		return 0, 0, err
	}
	inv := 1.0 / math.Sqrt(vals[1])
	for j := range rn.x {
		rn.x[j] = inv * rn.z[j]
	}
	p.ComputeFlops(float64(rn.nLocal))
	return vals[0], vals[1], nil
}

// String returns a short description of the config.
func (cfg Config) String() string {
	mode := "real"
	if cfg.Mode == Skeleton {
		mode = "skeleton"
	}
	return fmt.Sprintf("cg class %s (%s)", cfg.Class.Name, mode)
}
