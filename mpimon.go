package mpimon

import (
	"io"
	"time"

	"mpimon/internal/cg"
	"mpimon/internal/elastic"
	"mpimon/internal/faults"
	"mpimon/internal/hwcount"
	"mpimon/internal/matstat"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/online"
	"mpimon/internal/pml"
	"mpimon/internal/predict"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/stencil"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// Runtime types (package mpi).
type (
	// World is one simulated MPI job; see NewWorld.
	World = mpi.World
	// Comm is a communicator handle; rank programs receive COMM_WORLD.
	Comm = mpi.Comm
	// Proc is one MPI process (virtual clock, monitoring component).
	Proc = mpi.Proc
	// Status describes a completed or probed receive.
	Status = mpi.Status
	// Request is a nonblocking-operation handle.
	Request = mpi.Request
	// Win is a one-sided communication window.
	Win = mpi.Win
	// Datatype identifies reduction element types.
	Datatype = mpi.Datatype
	// Op is a reduction operator.
	Op = mpi.Op
	// Option configures NewWorld.
	Option = mpi.Option
)

// Machine-model types (package netsim / topology).
type (
	// Machine is the cluster performance model.
	Machine = netsim.Machine
	// LinkParams is a per-level latency/bandwidth pair.
	LinkParams = netsim.LinkParams
	// Network is the shared transport state with NIC counters.
	Network = netsim.Network
	// Topology is the hardware tree.
	Topology = topology.Topology
	// Tree is an explicit, possibly pruned, hardware tree.
	Tree = topology.Tree
)

// Monitoring types (package monitoring).
type (
	// Env is a process's monitoring environment (MPI_M_init).
	Env = monitoring.Env
	// Session is a monitoring session (MPI_M_msid).
	Session = monitoring.Session
	// Flags selects communication classes in data accessors.
	Flags = monitoring.Flags
	// Msid is a session identifier in the C-style API.
	Msid = monitoring.Msid
	// Info is the MPI_M_get_info result.
	Info = monitoring.Info
	// SessionState is a session's lifecycle state.
	SessionState = monitoring.State
	// MonitorLevel mirrors pml_monitoring_enable.
	MonitorLevel = pml.Level
	// CommClass classifies a monitored message (point-to-point,
	// collective-internal, one-sided).
	CommClass = pml.Class
)

// Communication classes, as seen by recorders and the telemetry layer.
const (
	ClassP2P  = pml.P2P
	ClassColl = pml.Coll
	ClassOsc  = pml.Osc
)

// Placement and reordering types.
type (
	// CommMatrix is a sparse process-affinity matrix for TreeMatch.
	CommMatrix = treematch.Matrix
	// ReorderOpt is one functional option of MonitorAndReorder and
	// ReorderFromSession (the Reorder* constructors below).
	ReorderOpt = reorder.Opt
)

// Fault-injection types (package faults).
type (
	// FaultPlan is a deterministic, seedable schedule of link faults and
	// node deaths; install it with WithFaultPlan.
	FaultPlan = faults.Plan
	// LinkRule degrades transmissions matching a node pair and a virtual
	// time window.
	LinkRule = faults.LinkRule
	// NodeDeath kills a node at a virtual time.
	NodeDeath = faults.NodeDeath
	// FaultInjector is a compiled plan; read its Stats after a run.
	FaultInjector = faults.Injector
	// FaultStats counts the injections a run performed.
	FaultStats = faults.Stats
	// FaultEvent is one injected fault, as seen by an observer.
	FaultEvent = faults.Event
)

// CG benchmark types.
type (
	// CGClass is one NAS problem class.
	CGClass = cg.Class
	// CGConfig configures RunCG.
	CGConfig = cg.Config
	// CGResult is one rank's CG outcome.
	CGResult = cg.Result
	// CGMode selects real numerics or communication skeleton.
	CGMode = cg.Mode
)

// Sampling types (package hwcount).
type (
	// TrafficCollector accumulates monitoring events with timestamps.
	TrafficCollector = hwcount.Collector
	// TrafficSample is one fixed-period bin of observed bytes.
	TrafficSample = hwcount.Sample
	// TrafficEvent is one observed transmission.
	TrafficEvent = hwcount.Event
)

// Wildcards and core constants.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Datatypes.
const (
	Byte    = mpi.Byte
	Int32   = mpi.Int32
	Int64   = mpi.Int64
	Uint64  = mpi.Uint64
	Float64 = mpi.Float64
)

// Reduction operators.
const (
	OpSum = mpi.OpSum
	OpMax = mpi.OpMax
	OpMin = mpi.OpMin
)

// Monitoring class-selection flags (MPI_M_P2P_ONLY etc.).
const (
	P2POnly  = monitoring.P2POnly
	CollOnly = monitoring.CollOnly
	OscOnly  = monitoring.OscOnly
	AllComm  = monitoring.AllComm
)

// AllMsid is MPI_M_ALL_MSID.
const AllMsid = monitoring.AllMsid

// Session states.
const (
	SessionActive    = monitoring.Active
	SessionSuspended = monitoring.Suspended
	SessionFreed     = monitoring.Freed
)

// Monitoring levels (pml_monitoring_enable values).
const (
	MonitorDisabled  = pml.Disabled
	MonitorAggregate = pml.Aggregate
	MonitorDistinct  = pml.Distinct
)

// CG modes and classes.
const (
	CGReal     = cg.Real
	CGSkeleton = cg.Skeleton
)

// NAS CG classes.
var (
	CGClassS = cg.ClassS
	CGClassW = cg.ClassW
	CGClassA = cg.ClassA
	CGClassB = cg.ClassB
	CGClassC = cg.ClassC
	CGClassD = cg.ClassD
)

// Monitoring error values (the paper's error constants).
var (
	ErrInternalFail       = monitoring.ErrInternalFail
	ErrMPITFail           = monitoring.ErrMPITFail
	ErrMissingInit        = monitoring.ErrMissingInit
	ErrSessionStillActive = monitoring.ErrSessionStillActive
	ErrSessionNotSusp     = monitoring.ErrSessionNotSuspended
	ErrInvalidMsid        = monitoring.ErrInvalidMsid
	ErrSessionOverflow    = monitoring.ErrSessionOverflow
	ErrMultipleCall       = monitoring.ErrMultipleCall
	ErrInvalidRoot        = monitoring.ErrInvalidRoot
	ErrInvalidFlags       = monitoring.ErrInvalidFlags
)

// NewWorld creates a simulated MPI job of np ranks on the machine; see
// WithPlacement and WithMonitoringLevel for options.
func NewWorld(mach *Machine, np int, opts ...Option) (*World, error) {
	return mpi.NewWorld(mach, np, opts...)
}

// WithPlacement maps rank i onto core placement[i].
func WithPlacement(placement []int) Option { return mpi.WithPlacement(placement) }

// WithMonitoringLevel sets the initial pml monitoring level.
func WithMonitoringLevel(l MonitorLevel) Option { return mpi.WithMonitoringLevel(l) }

// WithFaultPlan installs a fault plan on the world: the network consults
// it on every transmission and node deaths materialize as failed processes
// recoverable with Comm.Revoke / Comm.Shrink / Comm.Agree.
func WithFaultPlan(p *FaultPlan) Option { return mpi.WithFaultPlan(p) }

// Reorder options.
var (
	// ReorderFlags selects the communication classes fed to TreeMatch.
	ReorderFlags = reorder.WithFlags
	// ReorderMappingTimeout bounds one mapping computation, in the virtual
	// time the mapping-cost model prices it at.
	ReorderMappingTimeout = reorder.WithMappingTimeout
	// ReorderRetries bounds the mapping retry count.
	ReorderRetries = reorder.WithRetries
	// ReorderBackoff sets the base of the exponential retry backoff.
	ReorderBackoff = reorder.WithBackoff
	// ReorderNoIdentityFallback propagates mapping failure instead of
	// degrading to the identity permutation.
	ReorderNoIdentityFallback = reorder.WithoutIdentityFallback
)

// NewTopology builds a balanced hardware tree from per-level arities.
func NewTopology(arities ...int) (*Topology, error) { return topology.New(arities...) }

// ParseTopology reads a compact "8x2x12" spec.
func ParseTopology(spec string) (*Topology, error) { return topology.Parse(spec) }

// PlaFRIM models the paper's OmniPath testbed: nodes dual-socket 12-core
// nodes under one 100 Gb/s switch.
func PlaFRIM(nodes int) *Machine { return netsim.PlaFRIM(nodes) }

// IBPair models the paper's two-node InfiniBand EDR machine (Sec. 6.1).
func IBPair() *Machine { return netsim.IBPair() }

// InitMonitoring sets up the calling process's monitoring environment
// (MPI_M_init); call inside World.Run, after which sessions can be started.
func InitMonitoring(p *Proc) (*Env, error) { return monitoring.Init(p) }

// MonitorAndReorder implements the paper's Fig. 1: monitor phase(comm),
// compute a TreeMatch permutation from the observed communication matrix,
// and return the reordered communicator and the permutation k. Options are
// functional (the Reorder* constructors).
func MonitorAndReorder(env *Env, comm *Comm, phase func(*Comm) error, opts ...ReorderOpt) (*Comm, []int, error) {
	return reorder.MonitorAndReorder(env, comm, phase, opts...)
}

// ReorderFromSession reorders using an already-suspended session.
func ReorderFromSession(s *Session, opts ...ReorderOpt) (*Comm, []int, error) {
	return reorder.Reorder(s, opts...)
}

// Redistribute moves per-role data after a reordering (rank i receives
// from old rank k[i]).
func Redistribute(comm *Comm, k []int, data []byte) ([]byte, error) {
	return reorder.Redistribute(comm, k, data)
}

// MatrixView is the read-only communication-matrix view the mapping and
// analysis layers consume: a gathered *SparseMatrix satisfies it directly,
// and a row-major dense bytes matrix is adapted with DenseMatrixView.
type MatrixView = sparsemat.MatrixView

// DenseMatrixView adapts a row-major n-by-n bytes matrix to MatrixView
// without copying it.
func DenseMatrixView(mat []uint64, n int) MatrixView { return sparsemat.DenseView(mat, n) }

// ComputeMapping is the paper's compute_mapping: communication matrix +
// topology + placement to the permutation k (runs on the root rank). It
// accepts any MatrixView — a gathered sparse matrix or DenseMatrixView.
func ComputeMapping(v MatrixView, topo *Topology, place []int) ([]int, error) {
	return reorder.ComputeMapping(v, topo, place)
}

// ComputeMappingWarm refines the placement the communicator already runs
// under instead of recomputing it from scratch — the incremental TreeMatch
// of the online re-reordering loop.
func ComputeMappingWarm(v MatrixView, topo *Topology, place []int, passes int) ([]int, error) {
	return reorder.ComputeMappingWarm(v, topo, place, passes)
}

// Online re-reordering (package online): the introspection loop closed —
// monitor a window, measure matrix drift, re-reorder when it pays.

// OnlineController drives drift-triggered re-reordering; every rank
// constructs one with NewOnlineController and calls Step once per
// application window.
type OnlineController = online.Controller

// OnlineDecision records what one controller Step decided.
type OnlineDecision = online.Decision

// OnlineOption is one functional option of NewOnlineController.
type OnlineOption = online.Option

// NewOnlineController starts a monitoring session on comm and returns the
// per-rank controller of the online re-reordering loop.
func NewOnlineController(env *Env, comm *Comm, opts ...OnlineOption) (*OnlineController, error) {
	return online.New(env, comm, opts...)
}

// Online controller options.
var (
	// OnlineWindow sets the sliding window's epoch capacity.
	OnlineWindow = online.WithWindow
	// OnlineFullRemapDrift sets the drift above which a full TreeMatch
	// replaces the warm-started refinement.
	OnlineFullRemapDrift = online.WithFullRemapDrift
	// OnlineFlags selects the monitored communication classes.
	OnlineFlags = online.WithFlags
	// OnlineStateBytes declares each rank's migration payload for the
	// remap-cost model.
	OnlineStateBytes = online.WithStateBytes
	// OnlineLinkBandwidth sets the migration model's link bandwidth.
	OnlineLinkBandwidth = online.WithLinkBandwidth
	// OnlineMaxRemaps caps the controller's remap count.
	OnlineMaxRemaps = online.WithMaxRemaps
)

// MatrixDrift measures how far the current communication matrix diverged
// from a reference (L1 distance of symmetric affinities, normalized;
// range [0, 2]).
func MatrixDrift(ref, cur MatrixView) (float64, error) { return online.Drift(ref, cur) }

// TracePhaseMatrices folds each quiet-gap-separated phase of a run's message
// spans into its own sparse communication matrix (other spans are ignored).
func TracePhaseMatrices(spans []TelemetrySpan, n int, quiet time.Duration) ([]*SparseMatrix, error) {
	return online.PhaseMatrices(spans, n, quiet)
}

// TracePhaseDrifts measures the drift between consecutive phase matrices —
// the offline answer to "would the online controller have re-reordered?".
func TracePhaseDrifts(ms []*SparseMatrix) ([]float64, error) { return online.PhaseDrifts(ms) }

// Sparse communication-matrix types (package sparsemat): the O(nnz)
// representation the monitoring gathers ship and large-world consumers
// (TreeMatch, matrix analysis, elastic reconfiguration) operate on.
type (
	// SparseMatrix is a gathered sparse communication matrix (one row of
	// (dst, count, bytes) triples per source rank).
	SparseMatrix = sparsemat.Matrix
	// SparseRow is one source rank's nonzero per-destination data.
	SparseRow = sparsemat.Row
)

// CommMatrixFromView builds the TreeMatch affinity matrix from any
// MatrixView: O(nnz) over a sparse matrix, and bit-identical to the result
// over DenseMatrixView of the densified matrix.
func CommMatrixFromView(v MatrixView) (*CommMatrix, error) {
	return treematch.FromView(v)
}

// NewCommMatrix creates an empty n-process affinity matrix.
func NewCommMatrix(n int) *CommMatrix { return treematch.NewMatrix(n) }

// TreeMatch places m's processes on the leaves of the tree (the general
// top-down variant; prune the topology with Topology.Restrict for partial
// occupancy).
func TreeMatch(m *CommMatrix, root *Tree) ([]int, error) { return treematch.MapTree(m, root) }

// PlacementCost evaluates affinity-weighted topology distance of a
// placement; the reordering minimizes it.
func PlacementCost(m *CommMatrix, coreOf []int, topo *Topology) float64 {
	return treematch.Cost(m, coreOf, topo)
}

// Baseline placements.
func PlacementPacked(np int) []int { return treematch.PlacementPacked(np) }

// PlacementRoundRobin spreads ranks across nodes round-robin.
func PlacementRoundRobin(np int, topo *Topology) ([]int, error) {
	return treematch.PlacementRoundRobin(np, topo)
}

// PlacementRandom binds ranks to random distinct cores.
func PlacementRandom(np int, topo *Topology, seed int64) ([]int, error) {
	return treematch.PlacementRandom(np, topo, seed)
}

// RunCG executes the NAS CG kernel on the communicator.
func RunCG(c *Comm, cfg CGConfig) (CGResult, error) { return cg.Run(c, cfg) }

// CGClassByName resolves "S".."D".
func CGClassByName(name string) (CGClass, error) { return cg.ClassByName(name) }

// WaitAll completes nonblocking requests.
func WaitAll(reqs ...*Request) error { return mpi.WaitAll(reqs...) }

// BinTraffic folds observed events into fixed-period samples (the paper's
// 10 ms sampling of hardware counters and monitoring data).
func BinTraffic(evs []TrafficEvent, period, horizon time.Duration) []TrafficSample {
	return hwcount.Bin(evs, period, horizon)
}

// CumulativeTraffic turns a binned series into running sums (Fig. 3).
func CumulativeTraffic(s []TrafficSample) []TrafficSample { return hwcount.Cumulative(s) }

// NICEvents extracts one node's transmit events from the network log.
func NICEvents(net *Network, node int) []TrafficEvent {
	return hwcount.FromXmit(net.DrainEvents(), node)
}

// Buffer encoding helpers for typed reductions.

// EncodeFloat64Slice packs float64 values into a message buffer.
func EncodeFloat64Slice(v []float64) []byte { return mpi.EncodeFloat64s(v) }

// DecodeFloat64Slice unpacks a buffer written by EncodeFloat64Slice.
func DecodeFloat64Slice(b []byte) []float64 { return mpi.DecodeFloat64s(b) }

// EncodeIntSlice packs ints as little-endian int64.
func EncodeIntSlice(v []int) []byte { return mpi.EncodeInts(v) }

// DecodeIntSlice unpacks a buffer written by EncodeIntSlice.
func DecodeIntSlice(b []byte) []int { return mpi.DecodeInts(b) }

// EncodeUint64Slice packs uint64 values into a message buffer.
func EncodeUint64Slice(v []uint64) []byte { return mpi.EncodeUint64s(v) }

// DecodeUint64Slice unpacks a buffer written by EncodeUint64Slice.
func DecodeUint64Slice(b []byte) []uint64 { return mpi.DecodeUint64s(b) }

// Matrix-analysis and prediction surfaces.

// MatrixSummary aggregates a gathered communication matrix.
type MatrixSummary = matstat.Summary

// MatrixLocality classifies traffic by shared topology level.
type MatrixLocality = matstat.Locality

// MatrixPair is one directed communicating pair.
type MatrixPair = matstat.Pair

// SummarizeMatrix computes the aggregates of a matrix's bytes plane (O(nnz)
// over a sparse matrix).
func SummarizeMatrix(v MatrixView) (MatrixSummary, error) { return matstat.Summarize(v) }

// MatrixLocalityOf classifies a matrix's traffic under a placement.
func MatrixLocalityOf(v MatrixView, topo *Topology, place []int) (MatrixLocality, error) {
	return matstat.ComputeLocality(v, topo, place)
}

// TopMatrixPairs returns the k heaviest directed pairs.
func TopMatrixPairs(v MatrixView, k int) ([]MatrixPair, error) { return matstat.TopPairs(v, k) }

// UtilizationPredictor forecasts network utilization from monitoring
// samples (the paper's Sec. 7 prediction use case).
type UtilizationPredictor = predict.Predictor

// NewUtilizationPredictor builds a predictor (EWMA factor alpha, sliding
// window of winLen samples).
func NewUtilizationPredictor(alpha float64, winLen int) (*UtilizationPredictor, error) {
	return predict.New(alpha, winLen)
}

// Telemetry is the unified observability hub: per-rank span tracing plus a
// metrics registry, attached to a world via WithTelemetry and exported with
// WriteChromeTrace, WriteTelemetryCSV or WritePrometheus.
type Telemetry = telemetry.Telemetry

// TelemetrySpan is one recorded telemetry span.
type TelemetrySpan = telemetry.Span

// MetricsRegistry holds the telemetry counters, gauges and histograms.
type MetricsRegistry = telemetry.Registry

// NewTelemetry builds an empty telemetry hub.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry attaches the hub to a world at construction time; without
// it the runtime's telemetry hooks reduce to nil checks.
func WithTelemetry(tel *Telemetry) Option { return mpi.WithTelemetry(tel) }

// WriteChromeTrace writes spans as a Chrome trace-event (Perfetto) file.
func WriteChromeTrace(w io.Writer, spans []TelemetrySpan) error {
	return telemetry.WriteChromeTrace(w, spans)
}

// WriteTelemetryCSV writes spans as CSV.
func WriteTelemetryCSV(w io.Writer, spans []TelemetrySpan) error {
	return telemetry.WriteCSV(w, spans)
}

// WritePrometheus writes the registry in Prometheus text exposition format.
func WritePrometheus(w io.Writer, r *MetricsRegistry) error {
	return telemetry.WritePrometheus(w, r)
}

// Heat-diffusion application (a verifiable iterative halo-exchange solver,
// the workload class the paper's reordering targets).

// StencilConfig configures RunStencil.
type StencilConfig = stencil.Config

// StencilResult is one rank's heat-diffusion outcome.
type StencilResult = stencil.Result

// RunStencil executes the distributed 2D Jacobi solver on the communicator.
func RunStencil(c *Comm, cfg StencilConfig) (StencilResult, error) { return stencil.Run(c, cfg) }

// StaticPlacementFromView computes a launch-time placement from a previous
// run's communication matrix (the static strategy of Mercier & Jeannot that
// the paper's dynamic reordering improves upon).
func StaticPlacementFromView(v MatrixView, topo *Topology, cores []int) ([]int, error) {
	return reorder.StaticPlacement(v, topo, cores)
}

// Elastic reconfiguration (the paper's Sec. 7 node-failure use case).

// ReconfigPlan is a reconfiguration outcome: new placement + migrations.
type ReconfigPlan = elastic.Plan

// ReconfigMove is one process migration of a plan.
type ReconfigMove = elastic.Move

// ReconfigureFromView computes a topology-aware placement of the matrix's
// ranks onto the available cores from a monitored communication matrix,
// minimizing disturbance relative to the old placement.
func ReconfigureFromView(v MatrixView, topo *Topology, oldPlace, avail []int, stateBytes int64) (ReconfigPlan, error) {
	return elastic.ReconfigureView(v, topo, oldPlace, avail, stateBytes)
}

// SurvivingCores lists the cores that remain after removing nodes.
func SurvivingCores(topo *Topology, deadNodes ...int) []int {
	return elastic.Shrink(topo, deadNodes...)
}

// SurvivorCores lists the cores that remain usable after the failures the
// runtime has observed; call it on the communicator returned by
// Comm.Shrink to feed ReconfigureFromView the surviving resource set.
func SurvivorCores(c *Comm) []int { return elastic.SurvivorCores(c) }

// MultiSwitch models a two-tier cluster (switches x nodesPerSwitch
// dual-socket 12-core nodes); cross-switch links are the slowest level.
func MultiSwitch(switches, nodesPerSwitch int) *Machine {
	return netsim.MultiSwitch(switches, nodesPerSwitch)
}

// NewTopologyWithNodeDepth builds a topology whose compute nodes live at
// the given depth (switch levels above them).
func NewTopologyWithNodeDepth(nodeDepth int, arities ...int) (*Topology, error) {
	return topology.NewWithNodeDepth(nodeDepth, arities...)
}

// Cartesian process topologies (MPI_Cart_create with a TreeMatch-powered
// reorder flag).

// CartComm is a Cartesian grid communicator.
type CartComm = mpi.CartComm

// ProcNull marks a missing neighbour at a non-periodic grid edge.
const ProcNull = mpi.ProcNull

// DimsCreate factorizes nnodes into balanced grid dimensions.
func DimsCreate(nnodes, ndims int) ([]int, error) { return mpi.DimsCreate(nnodes, ndims) }

// RunStencil2D is the 2D-decomposed variant of RunStencil, built on a
// Cartesian communicator; with reorder true the grid is renumbered for
// hardware locality at creation.
func RunStencil2D(c *Comm, cfg StencilConfig, reorder bool) (StencilResult, error) {
	return stencil.Run2D(c, cfg, reorder)
}
