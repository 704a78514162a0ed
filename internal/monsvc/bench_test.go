package monsvc

import (
	"net/http/httptest"
	"testing"

	"mpimon/internal/sparsemat"
)

// benchRows builds one epoch's worth of rank rows: nRows ranks, each
// with nnzPerRow destinations.
func benchRows(nRows, nnzPerRow, n int) []RankRow {
	rows := make([]RankRow, nRows)
	for i := range rows {
		var r sparsemat.Row
		for d := 0; d < nnzPerRow; d++ {
			dst := int32((i + 1 + d*7) % n)
			// Keep destinations strictly ascending: rebuild sorted below.
			r.Dst = append(r.Dst, dst)
		}
		// Sort-unique the destinations, then attach values.
		sortInt32(r.Dst)
		uniq := r.Dst[:0]
		var last int32 = -1
		for _, d := range r.Dst {
			if d != last {
				uniq = append(uniq, d)
				last = d
			}
		}
		r.Dst = uniq
		r.Cnt = make([]uint64, len(r.Dst))
		r.Byt = make([]uint64, len(r.Dst))
		for k := range r.Dst {
			r.Cnt[k] = 3
			r.Byt[k] = 4096
		}
		rows[i] = RankRow{Rank: int32(i), Row: r}
	}
	return rows
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// BenchmarkServeIngest measures the service ingest path: every iteration
// pushes one epoch-tagged frame (64 ranks x ~8 nnz) into a retention-2
// job, so steady-state compaction is part of the cost. It reports a
// custom rows/s metric plus the standard MB/s (from SetBytes, wire bytes).
func BenchmarkServeIngest(b *testing.B) {
	const (
		np        = 256
		nRows     = 64
		nnzPerRow = 8
	)
	rows := benchRows(nRows, nnzPerRow, np)

	b.Run("direct", func(b *testing.B) {
		svc := New(Config{RetentionEpochs: 2})
		info, err := svc.CreateJob("bench", np)
		if err != nil {
			b.Fatal(err)
		}
		frame := AppendFrame(nil, 0, rows)
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame = AppendFrame(frame[:0], uint64(i), rows)
			if _, err := svc.Ingest(info.ID, info.Token, frame); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nRows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})

	b.Run("http", func(b *testing.B) {
		svc := New(Config{RetentionEpochs: 2})
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		c := NewClient(srv.URL)
		c.HTTP = srv.Client()
		if err := c.CreateJob("bench-http", np); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(AppendFrame(nil, 0, rows))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.PushRows(uint64(i), rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nRows*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkServeView measures the read side at steady state: cumulative
// views over a job with a full retention window.
func BenchmarkServeView(b *testing.B) {
	const np = 256
	svc := New(Config{RetentionEpochs: 4})
	info, err := svc.CreateJob("bench-view", np)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchRows(np, 8, np)
	for e := uint64(0); e < 8; e++ {
		if _, err := svc.Ingest(info.ID, info.Token, AppendFrame(nil, e, rows)); err != nil {
			b.Fatal(err)
		}
	}
	for _, sel := range []string{SelLatest, SelCumulative} {
		b.Run(sel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := svc.View(info.ID, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameCodec isolates the wire encode/decode pair.
func BenchmarkFrameCodec(b *testing.B) {
	const np = 1024
	rows := benchRows(256, 8, np)
	frame := AppendFrame(nil, 1, rows)
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		frame = AppendFrame(frame[:0], uint64(i), rows)
		if _, _, err := DecodeFrame(frame, np); err != nil {
			b.Fatal(err)
		}
	}
}
