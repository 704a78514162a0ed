package monsvc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpimon/internal/sparsemat"
)

// row builds a sparse row from (dst, cnt, byt) triples.
func row(triples ...[3]uint64) sparsemat.Row {
	var r sparsemat.Row
	for _, t := range triples {
		r.Dst = append(r.Dst, int32(t[0]))
		r.Cnt = append(r.Cnt, t[1])
		r.Byt = append(r.Byt, t[2])
	}
	return r
}

func rowEqual(a, b sparsemat.Row) bool {
	if len(a.Dst) != len(b.Dst) {
		return false
	}
	for i := range a.Dst {
		if a.Dst[i] != b.Dst[i] || a.Cnt[i] != b.Cnt[i] || a.Byt[i] != b.Byt[i] {
			return false
		}
	}
	return true
}

func TestFrameRoundtrip(t *testing.T) {
	rows := []RankRow{
		{Rank: 0, Row: row([3]uint64{1, 2, 64}, [3]uint64{3, 1, 8})},
		{Rank: 3, Row: row([3]uint64{0, 7, 512})},
		{Rank: 2, Row: sparsemat.Row{}}, // empty row is legal
	}
	frame := AppendFrame(nil, 42, rows)
	epoch, got, err := DecodeFrame(frame, 4)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 || len(got) != len(rows) {
		t.Fatalf("epoch %d rows %d, want 42 / %d", epoch, len(got), len(rows))
	}
	for i := range rows {
		if got[i].Rank != rows[i].Rank || !rowEqual(got[i].Row, rows[i].Row) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got[i], rows[i])
		}
	}
}

func TestFrameMalformed(t *testing.T) {
	good := AppendFrame(nil, 1, []RankRow{{Rank: 1, Row: row([3]uint64{0, 1, 10})}})
	cases := map[string][]byte{
		"empty":          nil,
		"bad version":    append([]byte{99}, good[1:]...),
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"truncated":      good[:len(good)-1],
	}
	for name, frame := range cases {
		if _, _, err := DecodeFrame(frame, 4); err == nil {
			t.Fatalf("%s frame decoded without error", name)
		}
	}
	// Rank outside the world.
	oob := AppendFrame(nil, 1, []RankRow{{Rank: 9, Row: row([3]uint64{0, 1, 10})}})
	if _, _, err := DecodeFrame(oob, 4); err == nil {
		t.Fatal("out-of-world rank decoded without error")
	}
}

// TestFrameCountBoundedByBytes: a 5-byte frame claiming 65536 rows for a
// 65536-rank job is rejected before anything is sized by the claim (it
// used to allocate 5.2 MB of row headers first).
func TestFrameCountBoundedByBytes(t *testing.T) {
	frame := []byte{1, 0, 0x80, 0x80, 0x04} // version 1, epoch 0, 65536 rows
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := DecodeFrame(frame, 65536); err == nil {
			t.Fatal("a frame claiming 65536 rows in 2 bytes decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1024 {
		t.Fatalf("rejecting the frame allocated %d B, want < 1 KiB", got)
	}
}

// FuzzDecodeFrame: every row of a frame DecodeFrame accepts has a rank in
// [0, n) (below 2^31 for n < 0) and passes Validate(n), and AppendFrame of
// the decoded rows decodes to the same epoch and rows. Uvarints may be
// overlong on input, so the re-encoding need not equal the input bytes. The
// checked-in corpus holds a valid three-row frame, a row count larger than
// the frame's bytes can hold, a rank outside the world, trailing bytes, a
// bad version, an overlong epoch, and a rank of 2^31 in a world of 2^32,
// which used to be accepted as int32 rank -2^31.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		epoch, rows, err := DecodeFrame(b, n)
		if err != nil {
			return
		}
		for _, rr := range rows {
			if rr.Rank < 0 || n >= 0 && int(rr.Rank) >= n {
				t.Fatalf("DecodeFrame(%x, %d) accepted rank %d", b, n, rr.Rank)
			}
			if err := rr.Row.Validate(n); err != nil {
				t.Fatalf("DecodeFrame(%x, %d) accepted an invalid row of rank %d: %v", b, n, rr.Rank, err)
			}
		}
		enc := AppendFrame(nil, epoch, rows)
		epoch2, rows2, err := DecodeFrame(enc, n)
		if err != nil || epoch2 != epoch || !reflect.DeepEqual(rows2, rows) {
			t.Fatalf("DecodeFrame(%x, %d) = epoch %d %+v, its re-encoding %x decodes to epoch %d %+v (%v)",
				b, n, epoch, rows, enc, epoch2, rows2, err)
		}
	})
}

func TestMergeRows(t *testing.T) {
	a := row([3]uint64{1, 1, 10}, [3]uint64{5, 2, 20})
	b := row([3]uint64{0, 3, 30}, [3]uint64{5, 1, 5}, [3]uint64{7, 4, 40})
	m := mergeRows(a, b)
	want := row([3]uint64{0, 3, 30}, [3]uint64{1, 1, 10}, [3]uint64{5, 3, 25}, [3]uint64{7, 4, 40})
	if !rowEqual(m, want) {
		t.Fatalf("merge = %+v, want %+v", m, want)
	}
	if !rowEqual(mergeRows(a, sparsemat.Row{}), a) || !rowEqual(mergeRows(sparsemat.Row{}, b), b) {
		t.Fatal("merge with empty row is not identity")
	}
}

func mustCreate(t *testing.T, s *Service, name string, n int) JobInfo {
	t.Helper()
	info, err := s.CreateJob(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func mustIngest(t *testing.T, s *Service, info JobInfo, epoch uint64, rows ...RankRow) IngestResult {
	t.Helper()
	res, err := s.Ingest(info.ID, info.Token, AppendFrame(nil, epoch, rows))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCreateJobLimits(t *testing.T) {
	s := New(Config{MaxJobs: 2, MaxWorldSize: 8})
	if _, err := s.CreateJob("huge", 9); !errors.Is(err, ErrWorldSize) {
		t.Fatalf("oversized world: %v, want ErrWorldSize", err)
	}
	if _, err := s.CreateJob("none", 0); !errors.Is(err, ErrWorldSize) {
		t.Fatalf("zero world: %v, want ErrWorldSize", err)
	}
	a := mustCreate(t, s, "a", 4)
	mustCreate(t, s, "b", 4)
	if _, err := s.CreateJob("c", 4); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("third job: %v, want ErrTooManyJobs", err)
	}
	if a.Token == "" || a.ID == "" {
		t.Fatalf("job info lacks id/token: %+v", a)
	}
	if err := s.Delete(a.ID, a.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateJob("c", 4); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestIngestAuth(t *testing.T) {
	s := New(Config{})
	info := mustCreate(t, s, "w", 4)
	frame := AppendFrame(nil, 0, []RankRow{{Rank: 0, Row: row([3]uint64{1, 1, 8})}})
	if _, err := s.Ingest("nope", info.Token, frame); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown job: %v, want ErrNoSuchJob", err)
	}
	if _, err := s.Ingest(info.ID, "wrong", frame); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong token: %v, want ErrBadToken", err)
	}
	if _, err := s.Ingest(info.ID, info.Token, []byte{7}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage frame: %v, want ErrBadFrame", err)
	}
	if err := s.Delete(info.ID, "wrong"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("delete with wrong token: %v, want ErrBadToken", err)
	}
}

// TestIngestMergesAndViews pins the accumulate-on-repush semantics and
// the three selector forms.
func TestIngestMergesAndViews(t *testing.T) {
	s := New(Config{RetentionEpochs: 8})
	info := mustCreate(t, s, "w", 4)
	mustIngest(t, s, info, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 10})})
	// Re-pushing rank 0 in epoch 0 merges (1 message more to dst 1, new dst 2).
	mustIngest(t, s, info, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 10}, [3]uint64{2, 1, 30})})
	mustIngest(t, s, info, 1, RankRow{Rank: 3, Row: row([3]uint64{0, 5, 50})})

	v, err := s.View(info.ID, "0")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 1 || !rowEqual(v.Rows[0].Row, row([3]uint64{1, 2, 20}, [3]uint64{2, 1, 30})) {
		t.Fatalf("epoch 0 view %+v: re-push did not merge", v.Rows)
	}
	latest, err := s.View(info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Epoch != 1 || latest.Selector != SelLatest || len(latest.Rows) != 1 || latest.Rows[0].Rank != 3 {
		t.Fatalf("latest view = %+v, want epoch 1 rank 3", latest)
	}
	cum, err := s.View(info.ID, SelCumulative)
	if err != nil {
		t.Fatal(err)
	}
	if len(cum.Rows) != 2 || cum.NNZ != 3 {
		t.Fatalf("cumulative view = %+v, want 2 rows / 3 nnz", cum)
	}

	if _, err := s.View(info.ID, "99"); !errors.Is(err, ErrNoSuchEpoch) {
		t.Fatalf("future epoch: %v, want ErrNoSuchEpoch", err)
	}
	if _, err := s.View(info.ID, "bogus"); !errors.Is(err, ErrBadSelector) {
		t.Fatalf("bogus selector: %v, want ErrBadSelector", err)
	}
	if _, err := s.View("nope", ""); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown job: %v, want ErrNoSuchJob", err)
	}
}

// TestRetentionCompaction verifies the sliding window: pushing K+1 epochs
// folds the oldest into the cumulative matrix, re-pushing a compacted
// epoch is 410-class, and the cumulative view still equals the sum.
func TestRetentionCompaction(t *testing.T) {
	s := New(Config{RetentionEpochs: 2})
	info := mustCreate(t, s, "w", 4)
	for e := uint64(0); e < 4; e++ {
		res := mustIngest(t, s, info, e, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 100})})
		if res.LiveEpochs > 2 {
			t.Fatalf("epoch %d: %d live epochs, want <= 2", e, res.LiveEpochs)
		}
	}
	// Epochs 0 and 1 must be compacted, 2 and 3 live.
	for _, e := range []string{"0", "1"} {
		if _, err := s.View(info.ID, e); !errors.Is(err, ErrEpochEvicted) {
			t.Fatalf("epoch %s: %v, want ErrEpochEvicted", e, err)
		}
	}
	for _, e := range []string{"2", "3"} {
		if _, err := s.View(info.ID, e); err != nil {
			t.Fatalf("live epoch %s: %v", e, err)
		}
	}
	if _, err := s.Ingest(info.ID, info.Token,
		AppendFrame(nil, 1, []RankRow{{Rank: 2, Row: row([3]uint64{0, 1, 1})}})); !errors.Is(err, ErrEpochEvicted) {
		t.Fatalf("re-push of compacted epoch: %v, want ErrEpochEvicted", err)
	}
	cum, err := s.View(info.ID, SelCumulative)
	if err != nil {
		t.Fatal(err)
	}
	if len(cum.Rows) != 1 {
		t.Fatalf("cumulative rows = %d, want 1", len(cum.Rows))
	}
	if got := cum.Rows[0].Row; !rowEqual(got, row([3]uint64{1, 4, 400})) {
		t.Fatalf("cumulative row = %+v, want 4 msgs / 400 B", got)
	}
	info2 := s.Jobs()[0]
	if info2.Compacted != 2 || len(info2.LiveEpochs) != 2 {
		t.Fatalf("job info = %+v, want 2 compacted / 2 live", info2)
	}
}

// TestFleetNNZAccounting pins the memory watermark the acceptance
// criterion cares about: the fleet gauge tracks the held nnz across
// ingest, compaction (which can only cancel, not add) and job removal.
func TestFleetNNZAccounting(t *testing.T) {
	s := New(Config{RetentionEpochs: 1})
	a := mustCreate(t, s, "a", 8)
	b := mustCreate(t, s, "b", 8)
	mustIngest(t, s, a, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 1}, [3]uint64{2, 1, 1})})
	mustIngest(t, s, b, 0, RankRow{Rank: 1, Row: row([3]uint64{0, 1, 1})})
	if got := s.Stats().FleetNNZ; got != 3 {
		t.Fatalf("fleet nnz = %d, want 3", got)
	}
	// Epoch 1 evicts epoch 0 into cum; the live epoch 1 and the
	// cumulative each hold rank 0's two entries (a: 4, b: 1).
	mustIngest(t, s, a, 1, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 1}, [3]uint64{2, 1, 1})})
	if got := s.Stats().FleetNNZ; got != 5 {
		t.Fatalf("fleet nnz after first compaction = %d, want 5", got)
	}
	// Epoch 2 compacts epoch 1, whose entries overlap cum exactly — the
	// overlap cancels (-2) while the disjoint new epoch adds one.
	mustIngest(t, s, a, 2, RankRow{Rank: 3, Row: row([3]uint64{4, 1, 1})})
	if got := s.Stats().FleetNNZ; got != 4 {
		t.Fatalf("fleet nnz after overlap-compaction = %d, want 4", got)
	}
	if err := s.Delete(a.ID, a.Token); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().FleetNNZ; got != 1 {
		t.Fatalf("fleet nnz after delete = %d, want 1 (job b)", got)
	}
	st := s.Stats()
	if st.Jobs != 1 || st.Rows != 1 || st.Frames != 1 {
		t.Fatalf("stats after delete = %+v", st)
	}
}

// TestSweepIdleEviction drives the idle sweeper with a fake clock.
func TestSweepIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{IdleTimeout: time.Minute, Now: func() time.Time { return now }})
	a := mustCreate(t, s, "a", 4)
	b := mustCreate(t, s, "b", 4)
	now = now.Add(50 * time.Second)
	mustIngest(t, s, b, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 1})})
	if n := s.Sweep(); n != 0 {
		t.Fatalf("premature sweep evicted %d", n)
	}
	now = now.Add(30 * time.Second) // a idle 80s, b idle 30s
	if n := s.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, err := s.View(a.ID, ""); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("idle job still present: %v", err)
	}
	if _, err := s.View(b.ID, ""); err != nil {
		t.Fatalf("active job evicted: %v", err)
	}
	// Zero timeout disables sweeping.
	s2 := New(Config{})
	mustCreate(t, s2, "c", 4)
	if n := s2.Sweep(); n != 0 {
		t.Fatalf("no-timeout sweep evicted %d", n)
	}
}

// TestIngestAllocsIndependentOfWorldSize pins the O(row) ingest cost: a
// one-rank push into a million-rank world must not allocate anything
// proportional to n.
func TestIngestAllocsIndependentOfWorldSize(t *testing.T) {
	s := New(Config{RetentionEpochs: 2, MaxWorldSize: 1 << 21})
	info := mustCreate(t, s, "big", 1<<20)
	frame := AppendFrame(nil, 0, []RankRow{{Rank: 12345, Row: row([3]uint64{1 << 19, 3, 999})}})
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Ingest(info.ID, info.Token, frame); err != nil {
			t.Fatal(err)
		}
	})
	// Decode + merge + result marshal touch a handful of small objects;
	// anything world-sized would be ≥ thousands.
	if allocs > 64 {
		t.Fatalf("ingest of one row allocates %.0f objects in a 2^20 world — not O(row)", allocs)
	}
}

func TestViewSnapshotIsStable(t *testing.T) {
	s := New(Config{RetentionEpochs: 4})
	info := mustCreate(t, s, "w", 4)
	mustIngest(t, s, info, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 1, 10})})
	v, err := s.View(info.ID, "0")
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprintf("%+v", v.Rows)
	// A later merge into the same rank/epoch must not mutate the
	// published snapshot (merges build new slices).
	mustIngest(t, s, info, 0, RankRow{Rank: 0, Row: row([3]uint64{1, 9, 90}, [3]uint64{3, 1, 1})})
	if after := fmt.Sprintf("%+v", v.Rows); after != before {
		t.Fatalf("published view mutated by later ingest:\nbefore %s\nafter  %s", before, after)
	}
}
