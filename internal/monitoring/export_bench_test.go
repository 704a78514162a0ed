package monitoring

import (
	"net/http/httptest"
	"testing"

	"mpimon/internal/commitagg"
	"mpimon/internal/monsvc"
	"mpimon/internal/sparsemat"
)

// benchExportRows builds n per-rank sparse rows of nnz ascending peers.
func benchExportRows(n, nnz int) []sparsemat.Row {
	rows := make([]sparsemat.Row, n)
	for r := range rows {
		row := sparsemat.Row{}
		for k := 0; k < nnz; k++ {
			row.Dst = append(row.Dst, int32(r+k+1))
			row.Cnt = append(row.Cnt, uint64(10+k))
			row.Byt = append(row.Byt, uint64(1024*(k+1)))
		}
		rows[r] = row
	}
	return rows
}

// BenchmarkCommitAggRowExport measures the steady-state row-export rate
// into a live daemon over HTTP — the path a monitored world's Suspend
// cycle pays. "eager" is one request per rank per epoch (the pre-batching
// exporter); "batched" coalesces an epoch's 64 rank rows behind a
// commitagg policy and pushes one ingest frame per epoch. The rows/s
// metric is the number to compare against monsvc's BenchmarkServeIngest
// direct (no-HTTP) ingest rate; batching is what closes most of the HTTP gap.
func BenchmarkCommitAggRowExport(b *testing.B) {
	const (
		np        = 256
		nRanks    = 64
		nnzPerRow = 8
	)
	rows := benchExportRows(nRanks, nnzPerRow)

	newJob := func(b *testing.B, name string) *monsvc.Client {
		b.Helper()
		svc := monsvc.New(monsvc.Config{RetentionEpochs: 2})
		srv := httptest.NewServer(svc.Handler())
		b.Cleanup(srv.Close)
		c := monsvc.NewClient(srv.URL)
		c.HTTP = srv.Client()
		if err := c.CreateJob(name, np); err != nil {
			b.Fatal(err)
		}
		return c
	}

	b.Run("eager", func(b *testing.B) {
		c := newJob(b, "bench-eager")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < nRanks; r++ {
				if err := c.ExportRow(uint64(i), r, np, rows[r]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nRanks*b.N)/b.Elapsed().Seconds(), "rows/s")
	})

	b.Run("batched", func(b *testing.B) {
		c := newJob(b, "bench-batched")
		be := NewBatchingRowExporter(c.ExportRowBatch,
			commitagg.Policy{Threshold: nRanks, IntervalNs: -1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < nRanks; r++ {
				if err := be.Export(uint64(i), r, np, rows[r]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := be.Flush(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(nRanks*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
