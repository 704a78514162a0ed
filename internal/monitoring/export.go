// Batched row export: a commit-on-threshold front between a session's
// per-Suspend row stream and a remote sink (the monsvc daemon). Instead
// of one push per (rank, epoch) the exporter coalesces pending rows —
// a later row for the same (epoch, rank) supersedes the earlier one and
// the superseded row never reaches the wire — and flushes whole epochs,
// ascending, when the accumulated row count crosses the policy threshold
// or an explicit Flush barrier forces it.

package monitoring

import (
	"fmt"
	"sort"
	"sync"

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
// RowBatchSink on threshold or barrier. Its Export method matches
// RowExporter, so it drops into Session.SetRowExporter; one exporter may
// serve many sessions and ranks concurrently (all methods are safe for
// concurrent use), which is how a whole world's rows for an epoch end up
// in a single ingest frame.
//
// Epochs flush in ascending order — the daemon's retention watermark
// only ever moves forward, so a frame for an old epoch pushed after a
// newer one could be refused as evicted.
type BatchingRowExporter struct {
	mu        sync.Mutex
	threshold int
	sink      RowBatchSink

	pend    map[uint64]*epochBatch
	updates int // pending logical exports since last successful flush
	fails   int // consecutive failed flushes
}

// epochBatch is one epoch's pending rows, rank-keyed so a re-export of
// the same rank supersedes in place.
type epochBatch struct {
	n    int
	rows map[int]sparsemat.Row
}

// NewBatchingRowExporter builds an exporter committing to sink once
// pol's threshold of distinct rows is pending (a zero threshold means
// commitagg.DefaultThreshold). The exporter reads no clock, so
// pol.IntervalNs is not used: rows wait for the threshold or a Flush.
func NewBatchingRowExporter(sink RowBatchSink, pol commitagg.Policy) *BatchingRowExporter {
	if sink == nil {
		panic("monitoring: NewBatchingRowExporter(nil sink)")
	}
	return &BatchingRowExporter{
		threshold: pol.Norm().Threshold,
		sink:      sink,
		pend:      make(map[uint64]*epochBatch),
	}
}

// Export matches RowExporter: install with
// session.SetRowExporter(b.Export). The returned error is a flush error;
// the rows that failed to flush stay pending and the next Export or
// Flush retries them, so a Suspend that surfaced the error can be
// compensated without data loss (until DefaultExportRetries is
// exhausted).
func (b *BatchingRowExporter) Export(epoch uint64, rank, n int, row sparsemat.Row) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	eb := b.pend[epoch]
	if eb == nil {
		eb = &epochBatch{n: n, rows: make(map[int]sparsemat.Row)}
		b.pend[epoch] = eb
	}
	// An earlier row for the rank is superseded before ever reaching the
	// sink — the self-negating-update cancellation of this layer — and
	// does not count toward the threshold again.
	if _, dup := eb.rows[rank]; !dup {
		b.updates++
	}
	eb.rows[rank] = row
	if b.updates >= b.threshold {
		return b.flushLocked()
	}
	return nil
}

// Flush pushes every pending row — the barrier. Call it after the last
// Suspend (or before reading the daemon's matrices) so the remote view
// is exact.
func (b *BatchingRowExporter) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

// pendingLocked counts the rows awaiting a flush. Caller holds b.mu.
func (b *BatchingRowExporter) pendingLocked() int {
	k := 0
	for _, eb := range b.pend {
		k += len(eb.rows)
	}
	return k
}

// flushLocked pushes pending epochs in ascending order. A sink failure
// keeps the failed epoch (and everything after it) pending; after
// DefaultExportRetries consecutive failing rounds the pending rows are
// dropped so a dead sink cannot grow the buffer without bound. Caller
// holds b.mu.
func (b *BatchingRowExporter) flushLocked() error {
	epochs := make([]uint64, 0, len(b.pend))
	for e := range b.pend {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
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
			if b.fails >= DefaultExportRetries {
				dropped := b.pendingLocked()
				b.pend = make(map[uint64]*epochBatch)
				b.updates = 0
				b.fails = 0
				return fmt.Errorf("monitoring: batch export of epoch %d failed %d times, dropping %d pending rows: %w", e, DefaultExportRetries, dropped, err)
			}
			return fmt.Errorf("monitoring: batch export of epoch %d (retryable, %d rows pending): %w", e, b.pendingLocked(), err)
		}
		delete(b.pend, e)
	}
	b.updates = 0
	b.fails = 0
	return nil
}
