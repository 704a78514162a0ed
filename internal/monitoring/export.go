// Batched row export: a commit-on-threshold front between a session's
// per-Suspend row stream and a remote sink (the monsvc daemon). Instead
// of one push per (rank, epoch) the exporter coalesces pending rows —
// a later row for the same (epoch, rank) supersedes the earlier one and
// the superseded row never reaches the wire — and flushes whole epochs,
// ascending, when the accumulated row count crosses the policy threshold,
// the interval elapses, or an explicit Flush barrier forces it.

package monitoring

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mpimon/internal/commitagg"
	"mpimon/internal/sparsemat"
)

// RowBatchSink consumes one epoch's coalesced rows in a single call:
// ranks[i] owns rows[i], n is the communicator size. A sink should be
// atomic per call — either the whole batch is ingested or none of it —
// because a failed call leaves the batch pending and a later flush
// retries it in full (monsvc.Client.ExportRowBatch, one ingest frame per
// call, qualifies; a per-row adapter does not and must be idempotent).
type RowBatchSink func(epoch uint64, n int, ranks []int, rows []sparsemat.Row) error

// DefaultExportRetries is how many consecutive failed flushes a batching
// exporter tolerates before it drops its pending rows (unbounded growth
// against a dead daemon would otherwise leak the whole run).
const DefaultExportRetries = 3

// BatchingRowExporter coalesces exported rows and commits them to a
// RowBatchSink on threshold, interval or barrier. Its Export method
// matches RowExporter, so it drops into Session.SetRowExporter; one
// exporter may serve many sessions and ranks concurrently (all methods
// are safe for concurrent use), which is how a whole world's rows for an
// epoch end up in a single ingest frame.
//
// Epochs flush in ascending order — the daemon's retention watermark
// only ever moves forward, so a frame for an old epoch pushed after a
// newer one could be refused as evicted.
type BatchingRowExporter struct {
	// MaxRetries bounds consecutive flush failures before pending rows
	// are dropped (the drop is reported in the returned error). Set
	// before first use; 0 means DefaultExportRetries.
	MaxRetries int

	mu   sync.Mutex
	pol  commitagg.Policy
	sink RowBatchSink
	now  func() int64 // wall clock; swappable in tests

	pend    map[uint64]*epochBatch
	updates int   // pending logical exports since last successful flush
	since   int64 // clock of last successful flush
	fails   int   // consecutive failed flushes

	statUpdates    uint64
	statCommits    uint64
	statFolds      uint64
	statSuperseded uint64
}

// epochBatch is one epoch's pending rows, rank-keyed so a re-export of
// the same rank supersedes in place.
type epochBatch struct {
	n    int
	rows map[int]sparsemat.Row
}

// NewBatchingRowExporter builds an exporter committing to sink under the
// policy (zero fields mean the commitagg defaults; note the default
// interval is wall-clock here — pass IntervalNs -1 for threshold-only
// batching in simulations, where 1 ms of wall time is many epochs).
func NewBatchingRowExporter(sink RowBatchSink, pol commitagg.Policy) *BatchingRowExporter {
	if sink == nil {
		panic("monitoring: NewBatchingRowExporter(nil sink)")
	}
	b := &BatchingRowExporter{
		pol:  pol.Norm(),
		sink: sink,
		now:  func() int64 { return time.Now().UnixNano() },
		pend: make(map[uint64]*epochBatch),
	}
	b.since = b.now()
	return b
}

// Export matches RowExporter: install with
// session.SetRowExporter(b.Export). The returned error is a flush error;
// the rows that failed to flush stay pending and the next Export or
// Flush retries them, so a Suspend that surfaced the error can be
// compensated without data loss (until MaxRetries is exhausted).
func (b *BatchingRowExporter) Export(epoch uint64, rank, n int, row sparsemat.Row) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	eb := b.pend[epoch]
	if eb == nil {
		eb = &epochBatch{n: n, rows: make(map[int]sparsemat.Row)}
		b.pend[epoch] = eb
	}
	if _, dup := eb.rows[rank]; dup {
		// The earlier row is superseded before ever reaching the sink —
		// the self-negating-update cancellation of this layer.
		b.statSuperseded++
	} else {
		b.updates++
	}
	eb.rows[rank] = row
	b.statUpdates++
	now := b.now()
	if b.updates >= b.pol.Threshold ||
		(b.pol.IntervalNs > 0 && now-b.since >= b.pol.IntervalNs) {
		return b.flushLocked(now)
	}
	return nil
}

// Flush pushes every pending row — the barrier. Call it after the last
// Suspend (or before reading the daemon's matrices) so the remote view
// is exact.
func (b *BatchingRowExporter) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked(b.now())
}

// Pending returns the number of rows awaiting a flush.
func (b *BatchingRowExporter) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pendingLocked()
}

func (b *BatchingRowExporter) pendingLocked() int {
	k := 0
	for _, eb := range b.pend {
		k += len(eb.rows)
	}
	return k
}

// Stats returns the exporter's lifetime counters: Updates counts Export
// calls, Folds sink calls (one per epoch frame pushed), Commits flush
// rounds that pushed anything.
func (b *BatchingRowExporter) Stats() commitagg.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return commitagg.Stats{Updates: b.statUpdates, Commits: b.statCommits, Folds: b.statFolds}
}

// Superseded returns how many exported rows were replaced by a later row
// for the same (epoch, rank) before flushing — traffic that never hit
// the wire.
func (b *BatchingRowExporter) Superseded() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.statSuperseded
}

// flushLocked pushes pending epochs in ascending order. A sink failure
// keeps the failed epoch (and everything after it) pending; after
// MaxRetries consecutive failing rounds the pending rows are dropped so
// a dead sink cannot grow the buffer without bound. Caller holds b.mu.
func (b *BatchingRowExporter) flushLocked(now int64) error {
	if len(b.pend) == 0 {
		b.updates = 0
		b.since = now
		return nil
	}
	epochs := make([]uint64, 0, len(b.pend))
	for e := range b.pend {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	pushed := false
	for _, e := range epochs {
		eb := b.pend[e]
		ranks := make([]int, 0, len(eb.rows))
		for r := range eb.rows {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		rows := make([]sparsemat.Row, len(ranks))
		for i, r := range ranks {
			rows[i] = eb.rows[r]
		}
		if err := b.sink(e, eb.n, ranks, rows); err != nil {
			b.fails++
			max := b.MaxRetries
			if max <= 0 {
				max = DefaultExportRetries
			}
			if b.fails >= max {
				dropped := 0
				for _, eb := range b.pend {
					dropped += len(eb.rows)
				}
				b.pend = make(map[uint64]*epochBatch)
				b.updates = 0
				b.fails = 0
				return fmt.Errorf("monitoring: batch export of epoch %d failed %d times, dropping %d pending rows: %w", e, max, dropped, err)
			}
			return fmt.Errorf("monitoring: batch export of epoch %d (retryable, %d rows pending): %w", e, b.pendingLocked(), err)
		}
		delete(b.pend, e)
		b.statFolds++
		pushed = true
	}
	if pushed {
		b.statCommits++
	}
	b.updates = 0
	b.since = now
	b.fails = 0
	return nil
}
