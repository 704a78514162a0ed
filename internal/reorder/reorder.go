// Package reorder implements the paper's dynamic rank reordering (Sec. 5,
// Fig. 1): monitor a phase of an iterative application with the
// introspection library, gather the communication matrix at rank 0, compute
// a topology-aware permutation with TreeMatch, broadcast it, and build a
// reordered communicator with Comm.Split — all at run time, without
// restarting the application or migrating processes.
package reorder

import (
	"fmt"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// phaseSpan opens a reordering-pipeline phase span on the calling rank's
// telemetry timeline (no-op when telemetry is disabled) and returns the
// closure ending it at the then-current virtual time.
func phaseSpan(c *mpi.Comm, name string) func() {
	tr := c.Proc().Telemetry()
	if tr == nil {
		return func() {}
	}
	p := c.Proc()
	tr.Begin(name, telemetry.KindPhase, int64(p.Clock()))
	return func() { tr.End(int64(p.Clock())) }
}

// options tunes the reordering step; callers adjust it through the Opt
// constructors below.
type options struct {
	// Flags selects the communication classes of the gathered matrix;
	// zero means monitoring.AllComm.
	Flags monitoring.Flags
	// MappingTimeout bounds the virtual time of the TreeMatch mapping on
	// rank 0: a mapping priced above it (mappingCost) fails with
	// mpi.ErrTimeout and Reorder degrades to the identity permutation.
	// Zero means no bound.
	MappingTimeout time.Duration
}

// Opt adjusts one reordering option; Reorder and MonitorAndReorder take
// any number of them.
type Opt func(*options)

// newOptions returns the default reordering options (all communication
// classes, no timeout) with the given adjustments applied.
func newOptions(opts ...Opt) *options {
	o := options{Flags: monitoring.AllComm}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Flags == 0 {
		o.Flags = monitoring.AllComm
	}
	return &o
}

// WithFlags selects the communication classes of the gathered matrix.
func WithFlags(f monitoring.Flags) Opt { return func(o *options) { o.Flags = f } }

// WithMappingTimeout bounds the virtual time of the mapping.
func WithMappingTimeout(d time.Duration) Opt { return func(o *options) { o.MappingTimeout = d } }

// NewRanks computes the paper's k vector from a TreeMatch result: given
// coreOf (role j should run on core coreOf[j]) and place (old rank r runs
// on core place[r]), k[r] is the new rank (role) of old rank r — the
// process physically located where TreeMatch wants role k[r]. Both slices
// must cover the same set of cores.
func NewRanks(coreOf, place []int) ([]int, error) {
	if len(coreOf) != len(place) {
		return nil, fmt.Errorf("reorder: %d roles for %d ranks", len(coreOf), len(place))
	}
	roleAt := make(map[int]int, len(coreOf))
	for role, core := range coreOf {
		if _, dup := roleAt[core]; dup {
			return nil, fmt.Errorf("reorder: two roles mapped on core %d", core)
		}
		roleAt[core] = role
	}
	k := make([]int, len(place))
	for r, core := range place {
		role, ok := roleAt[core]
		if !ok {
			return nil, fmt.Errorf("reorder: rank %d runs on core %d, which received no role", r, core)
		}
		k[r] = role
	}
	return k, nil
}

// ComputeMapping is the paper's compute_mapping: from the gathered bytes
// matrix, the machine topology and the current placement of the n
// communicator members, it returns the k vector. It runs on rank 0 only,
// on the matrix RootgatherSparse returns.
func ComputeMapping(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
	if len(place) != v.N {
		return nil, fmt.Errorf("reorder: placement of %d entries for %d ranks", len(place), v.N)
	}
	m, err := treematch.FromView(v)
	if err != nil {
		return nil, err
	}
	tree, err := topo.Restrict(place)
	if err != nil {
		return nil, err
	}
	coreOf, err := treematch.MapTree(m, tree)
	if err != nil {
		return nil, err
	}
	return NewRanks(coreOf, place)
}

// mapFn computes the full mapping on rank 0; a seam so tests can inject
// failures without a pathological matrix.
var mapFn = ComputeMapping

// mappingNsPerVisit is the one constant of the mapping-cost model: the
// virtual nanoseconds TreeMatch spends per matrix row or entry per tree
// level. Calibrated against Table 1's dated record in EXPERIMENTS.md (see
// "Reproducibility"): 275 is the middle of the interval that reproduces the
// 16384, 32768 and 65536 rows at the record's one-decimal precision.
const mappingNsPerVisit = 275

// mappingCost prices one mapping of m on a tree of the given depth in
// virtual time: each level partitions every row over every entry. It
// depends on nothing the host measures, so a reordering costs the same on
// every run.
func mappingCost(m *sparsemat.Matrix, depth int) time.Duration {
	return time.Duration(m.N+m.NNZ()) * time.Duration(depth) * mappingNsPerVisit
}

// Map is the mapping on the calling rank (rank 0 of comm) and the only
// call through which Reorder and the online controller reach TreeMatch: a
// full mapping of m under the placement comm runs under. The mapping is
// priced in virtual time only — mappingCost is charged to the caller's
// clock — and one priced above a positive timeout is charged the timeout
// and fails with mpi.ErrTimeout. Capped refinements of huge matrices are
// still valid mappings but count on the hub as
// mpimon_treematch_refine_degraded_total.
func Map(comm *mpi.Comm, m *sparsemat.Matrix, timeout time.Duration) ([]int, error) {
	p := comm.Proc()
	topo := comm.World().Machine().Topo
	// Restrict prunes branches, never levels: the restricted tree is as
	// deep as the machine.
	cost := mappingCost(m, topo.Depth())
	if timeout > 0 && cost > timeout {
		p.Compute(timeout)
		return nil, fmt.Errorf("reorder: mapping priced at %v did not complete within %v: %w", cost, timeout, mpi.ErrTimeout)
	}
	p.Compute(cost)
	if tel := comm.World().Telemetry(); tel != nil {
		ctr := tel.Registry().Counter("mpimon_treematch_refine_degraded_total")
		prev := treematch.OnRefineDegrade
		treematch.OnRefineDegrade = func(d treematch.RefineDegrade) {
			ctr.Inc()
			if prev != nil {
				prev(d)
			}
		}
		defer func() { treematch.OnRefineDegrade = prev }()
	}
	return mapFn(m, topo, MemberPlacement(comm))
}

// mapOrIdentity runs the mapping on rank 0 under the timeout. The
// mapping is a pure function of the matrix and the machine, so a failed one
// is not retried: it degrades to the identity permutation (the application
// keeps running unreordered) and counts as mpimon_reorder_fallback_total.
func mapOrIdentity(comm *mpi.Comm, sm *sparsemat.Matrix, timeout time.Duration) []int {
	var fallback *telemetry.Counter
	if tel := comm.World().Telemetry(); tel != nil {
		fallback = tel.Registry().Counter("mpimon_reorder_fallback_total")
	}
	k, err := Map(comm, sm, timeout)
	if err == nil {
		return k
	}
	if fallback != nil {
		fallback.Inc()
	}
	k = make([]int, sm.N)
	for i := range k {
		k[i] = i
	}
	return k
}

// MemberPlacement returns the core of each member of the communicator.
func MemberPlacement(c *mpi.Comm) []int {
	world := c.World().Placement()
	out := make([]int, c.Size())
	for i := range out {
		out[i] = world[c.WorldRank(i)]
	}
	return out
}

// The verdict rank 0 broadcasts in Remap.
const (
	verdictFailed = iota - 1
	verdictKeep
	verdictRemap
)

// Remap is the collective half of the paper's Fig. 1 (lines 6-11) on a
// suspended monitoring session, and the only implementation of it: rank 0
// gathers the sparse matrix and calls decide on it, which returns the
// permutation k to apply, nil to keep the communicator, or an error that
// every member then reports. The verdict is broadcast as one int, followed
// by k only when remapping (a "keep" never broadcasts O(n)), and the
// communicator in which old rank r has become rank k[r] is built with
// Comm.Split. The gather, the broadcasts and the split are excluded from
// monitoring like the library's own traffic. Remap returns that
// communicator and k, or the session's communicator and a nil k when decide
// kept it. Collective over the session's communicator.
func Remap(s *monitoring.Session, flags monitoring.Flags, decide func(*sparsemat.Matrix) ([]int, error)) (*mpi.Comm, []int, error) {
	comm := s.Comm()
	n := comm.Size()

	// The matrix travels in the sparse wire format and stays sparse all the
	// way into TreeMatch: rank 0 never materializes the n² dense matrix.
	endGather := phaseSpan(comm, "reorder.gather")
	sm, err := s.RootgatherSparse(0, flags)
	endGather()
	if err != nil {
		return nil, nil, err
	}

	// Returning a failure only at rank 0 would leave every other member
	// blocked in the broadcast below: it travels as a verdict instead, so
	// it surfaces collectively.
	verdict := verdictKeep
	var k []int
	var decErr error
	if comm.Rank() == 0 {
		endTM := phaseSpan(comm, "reorder.treematch")
		k, decErr = decide(sm)
		endTM()
		if decErr == nil && k != nil && len(k) != n {
			decErr = fmt.Errorf("reorder: permutation of %d entries for a communicator of %d", len(k), n)
		}
		switch {
		case decErr != nil:
			verdict = verdictFailed
		case k != nil:
			verdict = verdictRemap
		}
	}

	defer phaseSpan(comm, "reorder.split")()
	mon := comm.Proc().Monitor()
	mon.Suppress()
	defer mon.Unsuppress()
	vbuf := mpi.EncodeInts([]int{verdict})
	if err := comm.Bcast(vbuf, 0); err != nil {
		return nil, nil, err
	}
	switch mpi.DecodeInts(vbuf)[0] {
	case verdictFailed:
		if decErr == nil {
			decErr = fmt.Errorf("reorder: the remap decision failed on rank 0")
		}
		return nil, nil, decErr
	case verdictKeep:
		return comm, nil, nil
	}
	// MPI_Bcast(k, n, MPI_INT, 0, original_comm), then
	// MPI_Comm_split(original_comm, 0, k[myrank], &opt_comm): same color
	// everywhere, the key is the new rank.
	if k == nil {
		k = make([]int, n)
	}
	kbuf := mpi.EncodeInts(k)
	if err := comm.Bcast(kbuf, 0); err != nil {
		return nil, nil, err
	}
	k = mpi.DecodeInts(kbuf)
	opt, err := comm.Split(0, k[comm.Rank()])
	if err != nil {
		return nil, nil, err
	}
	return opt, k, nil
}

// Reorder executes lines 6-11 of the paper's Fig. 1 on a suspended
// monitoring session: Remap deciding with the TreeMatch permutation of the
// gathered matrix, under the options' timeout and identity fallback. It
// returns the communicator in which old rank r has become rank k[r], along
// with k. Collective over the session's communicator. The caller typically
// redistributes data next (Redistribute) and runs the remaining iterations
// on the new communicator.
func Reorder(s *monitoring.Session, opts ...Opt) (*mpi.Comm, []int, error) {
	o := newOptions(opts...)
	return Remap(s, o.Flags, func(sm *sparsemat.Matrix) ([]int, error) {
		return mapOrIdentity(s.Comm(), sm, o.MappingTimeout), nil
	})
}

// MonitorAndReorder is the paper's full Fig. 1 pattern: start a session on
// comm, run one (or more) monitored iterations via phase, suspend, reorder,
// and return the optimized communicator and the permutation. The session is
// freed before returning. Collective over comm.
//
// Pass nothing for the default options, or With* adjustments.
func MonitorAndReorder(env *monitoring.Env, comm *mpi.Comm, phase func(*mpi.Comm) error, opts ...Opt) (*mpi.Comm, []int, error) {
	s, err := env.Start(comm)
	if err != nil {
		return nil, nil, err
	}
	endMon := phaseSpan(comm, "reorder.monitor")
	if err := phase(comm); err != nil {
		endMon()
		return nil, nil, err
	}
	err = s.Suspend()
	endMon()
	if err != nil {
		return nil, nil, err
	}
	defer s.Free()
	return Reorder(s, opts...)
}

// Redistribute moves the per-role data after a reordering: old rank r held
// the data of role r; its new owner is the process whose new rank is r.
// Following the paper, rank i receives its new data from old rank k[i] (and
// symmetrically sends its old data to the process that inherits role r).
// It returns the received buffer; sizes may differ between roles.
// Collective over the original communicator.
func Redistribute(comm *mpi.Comm, k []int, data []byte) ([]byte, error) {
	defer phaseSpan(comm, "reorder.redistribute")()
	r := comm.Rank()
	if len(k) != comm.Size() {
		return nil, fmt.Errorf("reorder: permutation of %d entries for a communicator of %d", len(k), comm.Size())
	}
	kinv := make([]int, len(k))
	for i, v := range k {
		if v < 0 || v >= len(k) {
			return nil, fmt.Errorf("reorder: permutation entry k[%d]=%d out of range", i, v)
		}
		kinv[v] = i
	}
	if k[r] == r {
		return append([]byte(nil), data...), nil
	}
	const tag = 1<<19 + 7
	req, err := comm.Isend(kinv[r], tag, data)
	if err != nil {
		return nil, err
	}
	st, err := comm.Probe(k[r], tag)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	if _, err := comm.Recv(k[r], tag, buf); err != nil {
		return nil, err
	}
	if _, err := req.Wait(); err != nil {
		return nil, err
	}
	return buf, nil
}

// StaticPlacement computes a launch-time placement from a communication
// matrix of a previous run — the static strategy the paper contrasts with
// its dynamic reordering (monitor once, re-execute with the better
// mapping): given the gathered matrix and the machine topology, it
// returns the rank-to-core placement to pass to a new world via
// WithPlacement. cores selects the usable cores (nil = all).
func StaticPlacement(v *sparsemat.Matrix, topo *topology.Topology, cores []int) ([]int, error) {
	n := v.N
	m, err := treematch.FromView(v)
	if err != nil {
		return nil, err
	}
	var tree *topology.Tree
	if cores == nil {
		if n > topo.Leaves() {
			return nil, fmt.Errorf("reorder: %d ranks exceed %d cores", n, topo.Leaves())
		}
		all := make([]int, topo.Leaves())
		for i := range all {
			all[i] = i
		}
		cores = all[:n]
	}
	if len(cores) != n {
		return nil, fmt.Errorf("reorder: %d usable cores for %d ranks", len(cores), n)
	}
	tree, err = topo.Restrict(cores)
	if err != nil {
		return nil, err
	}
	return treematch.MapTree(m, tree)
}
