package online

import (
	"fmt"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/predict"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/treematch"
)

// The controller's fixed policy constants: nothing in the repository ever
// needed another value, so they are not options.
const (
	// driftThreshold is the drift at which a remap is considered; the
	// trigger is inclusive (drift == driftThreshold remaps).
	driftThreshold = 0.25
	// horizon is over how many future windows the modelled per-window gain
	// is amortized against the remap cost.
	horizon = 4
	// initialRemapCost seeds the remap-cost estimate until the first remap
	// has been measured (in virtual time) and replaces it.
	initialRemapCost = time.Millisecond
)

// config is the tunable state behind the functional options.
type config struct {
	window int
}

// Option adjusts one Controller tunable; pass them to New (the same
// functional-option construction style as reorder.Opt).
type Option func(*config)

// WithWindow sets how many monitoring epochs the sliding window retains
// (default 2; New rejects fewer than 1). Larger windows smooth transient
// traffic at the price of reacting a window later.
func WithWindow(epochs int) Option { return func(c *config) { c.window = epochs } }

// Decision records what one Step decided. Every rank sees Window and
// Remapped; the model fields (Drift, costs, gain, reason) are filled on
// the deciding rank (rank 0 of the current communicator) only — they are
// not broadcast.
type Decision struct {
	// Window is the 0-based index of the monitoring window this decision
	// closes.
	Window int
	// Drift is the measured divergence of the windowed matrix from the
	// reference matrix the current placement was computed for.
	Drift float64
	// Remapped reports whether the communicator was rebuilt.
	Remapped bool
	// Moved counts the ranks whose role changes under the mapping.
	Moved int
	// CostBefore/CostAfter are the placement costs (affinity × distance)
	// under the windowed matrix, before and with the candidate mapping.
	CostBefore, CostAfter float64
	// PredictedGain is the modelled communication time saved over the
	// horizon; RemapCost is what the remap was modelled to cost.
	PredictedGain, RemapCost time.Duration
	// Reason says why the controller did (or did not) remap.
	Reason string
}

// Controller drives the online re-reordering loop on one rank; every rank
// of the communicator constructs one (SPMD) and calls Step collectively
// once per application window. Construct with New, release with Close.
type Controller struct {
	env  *monitoring.Env
	comm *mpi.Comm
	sess *monitoring.Session
	cfg  config

	// Deciding-rank state (allocated everywhere, consulted at rank 0).
	win           *Window
	ref           *sparsemat.Matrix
	pred          *predict.Predictor
	lastRemapCost time.Duration

	windows int
	remaps  int
}

// New starts a monitoring session on comm and returns the controller.
// Collective over comm (every member must construct one).
func New(env *monitoring.Env, comm *mpi.Comm, opts ...Option) (*Controller, error) {
	cfg := config{window: 2}
	for _, fn := range opts {
		fn(&cfg)
	}
	if cfg.window < 1 {
		return nil, fmt.Errorf("online: window of %d epochs, want at least 1", cfg.window)
	}
	pred, err := predict.New(0.5, horizon)
	if err != nil {
		return nil, err
	}
	s, err := env.Start(comm)
	if err != nil {
		return nil, err
	}
	return &Controller{
		env:  env,
		comm: comm,
		sess: s,
		cfg:  cfg,
		win:  NewWindow(cfg.window),
		pred: pred,
	}, nil
}

// Comm returns the communicator the next Step will run on (the reordered
// one after a remap).
func (ctl *Controller) Comm() *mpi.Comm { return ctl.comm }

// Windows returns how many Steps have completed.
func (ctl *Controller) Windows() int { return ctl.windows }

// Remaps returns how many Steps ended in a remap.
func (ctl *Controller) Remaps() int { return ctl.remaps }

// span opens a telemetry phase span (no-op without telemetry).
func (ctl *Controller) span(name string) func() {
	p := ctl.comm.Proc()
	tr := p.Telemetry()
	if tr == nil {
		return func() {}
	}
	tr.Begin(name, telemetry.KindPhase, int64(p.Clock()))
	return func() { tr.End(int64(p.Clock())) }
}

func (ctl *Controller) counter(name string) *telemetry.Counter {
	if tel := ctl.comm.World().Telemetry(); tel != nil {
		return tel.Registry().Counter(name)
	}
	return nil
}

// Step runs one window of the application (phase is called with the
// current communicator and should execute one window's worth of monitored
// iterations), then closes the window with reorder.Remap: suspend, gather
// the epoch's sparse matrix at rank 0, where decide measures drift against
// the reference matrix and returns a permutation or keeps the placement,
// and — when the decision is to remap — broadcast the permutation, split a
// reordered communicator and restart monitoring on it. Returns the
// communicator the application must use from now on (== the previous one
// unless Remapped). Collective over the current communicator.
//
// Role data is NOT moved: after a remap the caller redistributes state
// with reorder.Redistribute over the OLD communicator if roles carry any.
func (ctl *Controller) Step(phase func(*mpi.Comm) error) (*mpi.Comm, Decision, error) {
	c := ctl.comm
	p := c.Proc()
	dec := Decision{Window: ctl.windows}

	endWin := ctl.span("online.window")
	t0 := p.Clock()
	err := phase(c)
	winDur := p.Clock() - t0
	if err == nil {
		err = ctl.sess.Suspend()
	}
	endWin()
	if err != nil {
		return c, dec, err
	}
	var decideStart time.Duration // rank 0's clock once the epoch is gathered
	opt, k, err := reorder.Remap(ctl.sess, monitoring.AllComm, func(epoch *sparsemat.Matrix) ([]int, error) {
		decideStart = p.Clock()
		return ctl.decide(&dec, epoch, winDur)
	})
	if err != nil {
		return c, dec, err
	}
	ctl.windows++
	if w := ctl.counter("mpimon_online_windows_total"); w != nil {
		w.Inc()
	}
	if k == nil {
		// Keep the placement. Every window starts from a clean slate: the
		// gathered matrix is one epoch's delta, the sliding window does
		// the accumulation.
		if err := ctl.sess.Reset(); err != nil {
			return c, dec, err
		}
		return c, dec, ctl.sess.Continue()
	}

	// Remapped: restart monitoring on the reordered communicator. The old
	// session is Suspended, so it can be freed.
	defer ctl.span("online.remap")()
	dec.Remapped = true
	if err := ctl.sess.Free(); err != nil {
		return c, dec, err
	}
	s, err := ctl.env.Start(opt)
	if err != nil {
		return c, dec, err
	}
	ctl.sess = s
	ctl.comm = opt
	ctl.remaps++
	if r := ctl.counter("mpimon_online_remaps_total"); r != nil {
		r.Inc()
	}
	if c.Rank() == 0 {
		// The measured virtual cost of this remap (mapping + bcast +
		// split + session restart) replaces the model's estimate next
		// time.
		ctl.lastRemapCost = p.Clock() - decideStart
	}
	return opt, dec, nil
}

// decide is the deciding rank's half of Step, the policy reorder.Remap
// calls on rank 0: fold the epoch into the sliding window, measure drift,
// compute a candidate mapping when the drift triggers, and accept it only
// when the modelled gain over the horizon exceeds the modelled remap cost.
// Returns the permutation to apply, or nil to keep the current placement.
func (ctl *Controller) decide(dec *Decision, epoch *sparsemat.Matrix, winDur time.Duration) ([]int, error) {
	ctl.win.Push(epoch)
	cur, err := ctl.win.Matrix()
	if err != nil {
		return nil, err
	}
	epochBytes, err := sparsemat.TotalBytes(epoch)
	if err != nil {
		return nil, err
	}
	// Feed the per-window traffic to the utilization predictor; its
	// forecast scales the gain model below. A clock that did not advance
	// (empty window) is skipped rather than fatal.
	_ = ctl.pred.Observe(ctl.comm.Proc().Clock(), float64(epochBytes))

	if dec.Drift, err = Drift(ctl.ref, cur); err != nil {
		return nil, err
	}
	if !Drifted(dec.Drift, driftThreshold) && ctl.ref != nil {
		dec.Reason = "stable: drift below threshold"
		return nil, nil
	}

	place := reorder.MemberPlacement(ctl.comm)
	topo := ctl.comm.World().Machine().Topo
	aff, err := treematch.FromView(cur)
	if err != nil {
		return nil, err
	}
	dec.CostBefore = treematch.Cost(aff, place, topo)

	k, err := reorder.Map(ctl.comm, cur, 0)
	if err != nil {
		return nil, err
	}
	after := make([]int, len(k)) // after[role] = the core role runs on under k
	for r, role := range k {
		after[role] = place[r]
		if role != r {
			dec.Moved++
		}
	}
	dec.CostAfter = treematch.Cost(aff, after, topo)

	if dec.CostAfter >= dec.CostBefore && ctl.ref != nil {
		// The current placement is as good as the candidate under the
		// new pattern: rebase the reference so stable follow-up windows
		// stop re-triggering.
		dec.Reason = "no better placement"
		ctl.ref = cur
		return nil, nil
	}
	if dec.Moved == 0 {
		dec.Reason = "identity mapping"
		ctl.ref = cur
		return nil, nil
	}

	// Migration-cost-aware gate (skipped for the very first mapping,
	// which has no reference placement worth preserving): model the gain
	// as the window's communication time scaled by the fractional cost
	// reduction and the predictor's traffic forecast, amortized over the
	// horizon, and compare with the measured (or seeded) remap cost.
	if ctl.ref != nil {
		gainFrac := 0.0
		if dec.CostBefore > 0 {
			gainFrac = 1 - dec.CostAfter/dec.CostBefore
		}
		scale := 1.0
		if f := ctl.pred.Forecast(winDur); epochBytes > 0 && f > 0 {
			scale = f / float64(epochBytes)
		}
		dec.PredictedGain = time.Duration(float64(winDur) * gainFrac * scale * horizon)
		rc := ctl.lastRemapCost
		if rc <= 0 {
			rc = initialRemapCost
		}
		dec.RemapCost = rc
		if dec.PredictedGain <= rc {
			dec.Reason = "predicted gain below remap cost"
			return nil, nil
		}
	}

	dec.Reason = "full remap"
	if ctl.ref == nil {
		dec.Reason = "initial mapping"
	}
	ctl.ref = cur
	return k, nil
}

// Rebind points the controller at a new communicator — the post-Shrink
// hook of the PR 3 elastic path: after Comm.Revoke/Comm.Shrink, pass the
// shrunken communicator here and the controller restarts monitoring on it,
// drops the now-incomparable window and reference (the rank space
// changed), and forces a fresh optimization on the next Step. The old
// session is released locally; its comm may be dead. Collective over nc.
func (ctl *Controller) Rebind(nc *mpi.Comm) error {
	ctl.releaseSession()
	s, err := ctl.env.Start(nc)
	if err != nil {
		return err
	}
	ctl.sess = s
	ctl.comm = nc
	ctl.win = NewWindow(ctl.cfg.window)
	ctl.ref = nil
	ctl.lastRemapCost = 0
	return nil
}

// Close suspends and frees the monitoring session. Further Steps are
// invalid until a Rebind.
func (ctl *Controller) Close() {
	ctl.releaseSession()
}

func (ctl *Controller) releaseSession() {
	if ctl.sess == nil {
		return
	}
	if ctl.sess.State() == monitoring.Active {
		_ = ctl.sess.Suspend() // local: reads this rank's pvars
	}
	_ = ctl.sess.Free()
	ctl.sess = nil
}
