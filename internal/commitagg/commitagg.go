// Package commitagg is a commit-on-threshold aggregation layer: it
// commits *information, not traffic*. Hot paths accumulate deltas into
// process-local cells in O(1) and the accumulated state is folded into
// its sink — a shared counter, a network exporter — only when one of
// three triggers fires:
//
//   - the number of logical updates since the last commit crosses the
//     shard's threshold,
//   - the (virtual or wall) clock advances past the commit interval, or
//   - an explicit barrier (Suspend, Flush, a gather)
//     forces a commit so readers observe exact totals.
//
// Between commits, self-negating updates (a gauge incremented and then
// decremented, a delta folded back to zero) cancel in the cell and never
// reach the sink at all. The contract is exactness at barriers: a forced
// commit yields totals bit-identical to an eager (per-update) path —
// only *when* data moves changes, never *what*.
//
// A Shard is owned by one producer in spirit (one rank, one session) but
// every operation is safe for concurrent use: cells are padded atomics,
// commits swap deltas out atomically, so a forced Flush from an export
// goroutine races safely with in-flight Adds.
//
// Policy and Stats configure and report the monitoring row exporter
// (monitoring.BatchingRowExporter), which batches rows into network
// frames. The telemetry counters take no cells: each is written by one
// rank, so a plain atomic add costs less than a cell and leaves nothing
// to amortize (docs/PERFORMANCE.md, "Telemetry counters and row export").
package commitagg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultThreshold is the number of logical updates a shard accumulates
// before committing when the policy does not say otherwise. A threshold
// sweep picked it (BenchmarkCommitAgg keeps the grid): past 256 the
// per-update cost is flat (the commit is fully amortized) while staleness
// keeps growing.
const DefaultThreshold = 256

// DefaultIntervalNs is the default commit interval (1 ms). On paths
// clocked in virtual time it bounds how far a quiet shard's pending
// state can lag the clock; 1 ms is far below any monitoring epoch.
const DefaultIntervalNs = 1_000_000

// Policy says when accumulated deltas commit to their sinks.
type Policy struct {
	// Threshold is the number of logical updates per shard between
	// commits. 1 (or negative) means eager: every update commits
	// immediately, reproducing the unbatched path through the same code.
	// 0 means DefaultThreshold.
	Threshold int
	// IntervalNs commits when the clock passed to Add has advanced at
	// least this far since the last commit. 0 means DefaultIntervalNs;
	// negative disables the interval trigger.
	IntervalNs int64
}

// Eager is the policy that commits every update immediately — the
// bit-identical baseline the batched paths are pinned against.
var Eager = Policy{Threshold: 1, IntervalNs: -1}

// Default returns the default batching policy.
func Default() Policy {
	return Policy{Threshold: DefaultThreshold, IntervalNs: DefaultIntervalNs}
}

// Norm resolves the zero values to the defaults: Threshold 0 becomes
// DefaultThreshold (negative becomes 1 = eager), IntervalNs 0 becomes
// DefaultIntervalNs (negative stays, disabling the interval trigger).
// Every consumer of a Policy (NewShard, the monitoring batch exporter)
// normalizes on ingest, so callers can hand over partially-filled
// literals.
func (p Policy) Norm() Policy {
	if p.Threshold == 0 {
		p.Threshold = DefaultThreshold
	}
	if p.Threshold < 1 {
		p.Threshold = 1
	}
	if p.IntervalNs == 0 {
		p.IntervalNs = DefaultIntervalNs
	}
	return p
}

// Eager reports whether the policy commits on every update.
func (p Policy) Eager() bool { return p.Norm().Threshold <= 1 }

// Validate rejects nonsensical policies (currently none — every value
// normalizes — but the method anchors the contract for flag parsing).
func (p Policy) Validate() error { return nil }

// String renders the normalized policy for logs and TSV headers.
func (p Policy) String() string {
	n := p.Norm()
	return fmt.Sprintf("threshold=%d interval=%dns", n.Threshold, n.IntervalNs)
}

// Sink consumes one committed delta. Sinks must be safe for concurrent
// use when the shard can be flushed from more than one goroutine (the
// telemetry counters are atomic, so they qualify trivially).
type Sink func(delta int64)

// Cell is one accumulation slot: a pending delta bound to a sink. Cells
// are padded to a cache line so a shard's cells never false-share, which
// is the contention the layer exists to remove.
type Cell struct {
	pending atomic.Int64
	sink    Sink
	_       [48]byte // pad pending+sink to 64 bytes
}

// Stats counts a shard's lifetime activity. Updates/Folds is the commit
// ratio the benchmarks report: how many logical updates one sink write
// amortizes.
type Stats struct {
	// Updates is the number of logical updates accepted.
	Updates uint64
	// Commits is the number of commit rounds (threshold, interval or
	// forced).
	Commits uint64
	// Folds is the number of sink invocations — cells whose pending
	// delta was nonzero at commit time. Self-negated cells do not fold.
	Folds uint64
}

// Shard is one producer's accumulator group: a set of cells committed
// together under one policy. The zero Shard is not usable; build with
// NewShard.
type Shard struct {
	pol Policy

	mu    sync.Mutex // guards cells registration only
	cells []*Cell

	updates atomic.Int64 // since last commit
	last    atomic.Int64 // clock of last commit

	statUpdates atomic.Uint64
	statCommits atomic.Uint64
	statFolds   atomic.Uint64
}

// NewShard builds a shard with the given (normalized) policy.
func NewShard(pol Policy) *Shard {
	return &Shard{pol: pol.Norm()}
}

// Policy returns the shard's normalized policy.
func (s *Shard) Policy() Policy { return s.pol }

// NewCell registers an accumulation cell whose commits go to sink.
// Registration is not a hot path; Add is.
func (s *Shard) NewCell(sink Sink) *Cell {
	if sink == nil {
		panic("commitagg: NewCell(nil sink)")
	}
	c := &Cell{sink: sink}
	s.mu.Lock()
	s.cells = append(s.cells, c)
	s.mu.Unlock()
	return c
}

// Add accumulates one logical update of delta into the cell and commits
// the whole shard when a trigger fires. now is the producer's clock
// (virtual ns on simulation paths, wall ns elsewhere); it only feeds the
// interval trigger, so any monotonic scale works. Zero-delta updates
// still count as updates (they represent work observed), but a cell
// whose pending sum is zero at commit time never reaches its sink.
func (s *Shard) Add(c *Cell, delta int64, now int64) {
	c.pending.Add(delta)
	n := s.updates.Add(1)
	s.statUpdates.Add(1)
	if n >= int64(s.pol.Threshold) {
		s.commit(now)
		return
	}
	if iv := s.pol.IntervalNs; iv > 0 && now-s.last.Load() >= iv {
		s.commit(now)
	}
}

// Flush forces a commit of every pending delta — the barrier hook. It
// leaves the interval phase unchanged so a barrier does not stretch the
// next interval window.
func (s *Shard) Flush() {
	s.commit(s.last.Load())
}

// commit swaps every cell's pending delta out and folds the nonzero
// ones into their sinks. Concurrent commits are safe (each delta is
// swapped out exactly once); concurrent Adds land either in this commit
// or the next — and always in a forced barrier commit that follows.
func (s *Shard) commit(now int64) {
	s.updates.Store(0)
	s.last.Store(now)
	s.statCommits.Add(1)
	s.mu.Lock()
	cells := s.cells
	s.mu.Unlock()
	for _, c := range cells {
		if d := c.pending.Swap(0); d != 0 {
			c.sink(d)
			s.statFolds.Add(1)
		}
	}
}

// Stats returns the shard's lifetime counters.
func (s *Shard) Stats() Stats {
	return Stats{
		Updates: s.statUpdates.Load(),
		Commits: s.statCommits.Load(),
		Folds:   s.statFolds.Load(),
	}
}

// Add folds two stats (per-rank shards summed to a world view).
func (a Stats) Add(b Stats) Stats {
	a.Updates += b.Updates
	a.Commits += b.Commits
	a.Folds += b.Folds
	return a
}

// UpdatesPerFold is the commit ratio: logical updates amortized by one
// sink write. Eager paths sit at 1; batched heavy-churn paths should be
// ≥ 5 (the acceptance bar of results/BENCH_commitagg.json).
func (a Stats) UpdatesPerFold() float64 {
	if a.Folds == 0 {
		if a.Updates == 0 {
			return 0
		}
		return float64(a.Updates)
	}
	return float64(a.Updates) / float64(a.Folds)
}
