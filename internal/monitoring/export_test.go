package monitoring

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpimon/internal/commitagg"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
)

// sinkCall is one recorded RowBatchSink invocation.
type sinkCall struct {
	epoch uint64
	n     int
	ranks []int
	rows  []sparsemat.Row
}

// recordingSink captures batch pushes and can be told to fail; attempts
// counts every call, failed ones included.
type recordingSink struct {
	calls    []sinkCall
	fail     error
	attempts int
}

func (r *recordingSink) sink(epoch uint64, n int, ranks []int, rows []sparsemat.Row) error {
	r.attempts++
	if r.fail != nil {
		return r.fail
	}
	r.calls = append(r.calls, sinkCall{epoch: epoch, n: n, ranks: ranks, rows: rows})
	return nil
}

func row1(dst int, cnt, byt uint64) sparsemat.Row {
	return sparsemat.Row{Dst: []int32{int32(dst)}, Cnt: []uint64{cnt}, Byt: []uint64{byt}}
}

// TestBatchingThresholdAndCoalesce pins the core batch semantics: rows
// buffer until the threshold, a later row for the same (epoch, rank)
// supersedes the earlier one without counting toward the threshold, and
// the flush delivers one call per epoch with rank-sorted rows and leaves
// nothing pending.
func TestBatchingThresholdAndCoalesce(t *testing.T) {
	rec := &recordingSink{}
	b := NewBatchingRowExporter(rec.sink, commitagg.Policy{Threshold: 4, IntervalNs: -1})
	for _, r := range []int{2, 0, 1} {
		if err := b.Export(0, r, 8, row1(r+1, 1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.calls) != 0 {
		t.Fatalf("sink fired after 3/4 exports: %d calls", len(rec.calls))
	}
	// Rank 0 re-exports: supersedes in place, still 3 pending rows.
	if err := b.Export(0, 0, 8, row1(5, 9, 90)); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 0 {
		t.Fatalf("a superseding row counted toward the threshold: %d calls", len(rec.calls))
	}
	if err := b.Export(0, 3, 8, row1(4, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("threshold flush made %d sink calls, want 1", len(rec.calls))
	}
	c := rec.calls[0]
	if c.epoch != 0 || c.n != 8 {
		t.Fatalf("pushed epoch %d n %d, want 0/8", c.epoch, c.n)
	}
	wantRanks := []int{0, 1, 2, 3}
	for i, r := range wantRanks {
		if c.ranks[i] != r {
			t.Fatalf("ranks %v, want %v", c.ranks, wantRanks)
		}
	}
	// Rank 0's row is the superseding one.
	if c.rows[0].Cnt[0] != 9 || c.rows[0].Byt[0] != 90 {
		t.Fatalf("rank 0 row not superseded: %+v", c.rows[0])
	}
	if err := b.Flush(); err != nil || rec.attempts != 1 {
		t.Fatalf("flush after the threshold flush: %v, %d sink calls in all, want 1", err, rec.attempts)
	}
}

// TestBatchingFlushAscendingEpochs pins the push order: a barrier flush
// of several pending epochs pushes them ascending, so the daemon's
// retention watermark never sees an epoch older than one it evicted.
func TestBatchingFlushAscendingEpochs(t *testing.T) {
	rec := &recordingSink{}
	b := NewBatchingRowExporter(rec.sink, commitagg.Policy{Threshold: 100, IntervalNs: -1})
	for _, e := range []uint64{2, 0, 1} {
		if err := b.Export(e, 0, 4, row1(1, e+1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 3 {
		t.Fatalf("%d sink calls, want 3", len(rec.calls))
	}
	for i, want := range []uint64{0, 1, 2} {
		if rec.calls[i].epoch != want {
			t.Fatalf("push %d is epoch %d, want %d", i, rec.calls[i].epoch, want)
		}
	}
}

// TestBatchingRetry pins the failure contract: a failing sink keeps the
// batch pending (the error says retryable), and a later flush delivers
// exactly once — no loss, no duplicates.
func TestBatchingRetry(t *testing.T) {
	rec := &recordingSink{fail: errors.New("daemon down")}
	b := NewBatchingRowExporter(rec.sink, commitagg.Policy{Threshold: 2, IntervalNs: -1})
	if err := b.Export(0, 0, 4, row1(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	err := b.Export(0, 1, 4, row1(2, 1, 1))
	if err == nil {
		t.Fatal("threshold flush into failing sink returned nil")
	}
	rec.fail = nil
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || len(rec.calls[0].ranks) != 2 {
		t.Fatalf("retry did not deliver the batch exactly once: %+v", rec.calls)
	}
	if err := b.Flush(); err != nil || len(rec.calls) != 1 {
		t.Fatalf("flush after the retry: %v, %d calls, want the batch delivered once", err, len(rec.calls))
	}
}

// TestBatchingDropAfterMaxRetries pins the growth bound: every failing
// flush retries the pending rows until DefaultExportRetries consecutive
// failures drop them, and the last error says so.
func TestBatchingDropAfterMaxRetries(t *testing.T) {
	rec := &recordingSink{fail: errors.New("daemon gone")}
	b := NewBatchingRowExporter(rec.sink, commitagg.Policy{Threshold: 100, IntervalNs: -1})
	if err := b.Export(0, 0, 4, row1(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= DefaultExportRetries; i++ {
		err := b.Flush()
		if err == nil {
			t.Fatalf("failing flush %d returned nil", i)
		}
		if rec.attempts != i {
			t.Fatalf("after failing flush %d the sink saw %d calls: the rows were dropped early", i, rec.attempts)
		}
		if dropped := strings.Contains(err.Error(), "dropping 1 pending rows"); dropped != (i == DefaultExportRetries) {
			t.Fatalf("failing flush %d: %v", i, err)
		}
	}
	rec.fail = nil
	if err := b.Flush(); err != nil || rec.attempts != DefaultExportRetries {
		t.Fatalf("flush after the drop: %v, %d sink calls in all, want the rows gone", err, rec.attempts)
	}
}

// TestSuspendExporterFailureRetryable pins the session-side contract the
// batching layer relies on: a failing exporter leaves the session
// Suspended with its data intact, the error wraps ErrInternalFail, and
// the same data can be re-exported once the sink recovers — Suspend
// errors are retryable, not corrupting.
func TestSuspendExporterFailureRetryable(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		env, err := Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.SendN(1, 0, 512); err != nil {
				return err
			}
		} else if _, err := c.Recv(0, 0, nil); err != nil {
			return err
		}

		rec := &recordingSink{fail: errors.New("sink offline")}
		b := NewBatchingRowExporter(rec.sink, commitagg.Eager)
		s.SetRowExporter(b.Export)
		err = s.Suspend()
		if err == nil {
			return errors.New("Suspend with failing exporter returned nil")
		}
		if !errors.Is(err, ErrInternalFail) {
			return fmt.Errorf("Suspend error %v does not wrap ErrInternalFail", err)
		}
		// The session is Suspended and its data is readable despite the
		// export failure.
		if st := s.State(); st != Suspended {
			return fmt.Errorf("state after failed export = %v, want Suspended", st)
		}
		counts, _, err := s.Data(AllComm)
		if err != nil {
			return fmt.Errorf("data unreadable after failed export: %w", err)
		}
		want := uint64(0)
		if c.Rank() == 0 {
			want = 1
		}
		if counts[1-c.Rank()] != want {
			return fmt.Errorf("counts corrupted after failed export: %v", counts)
		}
		// The failed row is still pending in the batching exporter; once
		// the sink recovers a barrier flush delivers it.
		rec.fail = nil
		if err := b.Flush(); err != nil {
			return fmt.Errorf("retry flush: %w", err)
		}
		if len(rec.calls) != 1 {
			return fmt.Errorf("retry did not deliver the suspended row: %d calls", len(rec.calls))
		}
		return s.Free()
	})
}
