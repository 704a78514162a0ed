package telemetry

import (
	"io"
	"strconv"
	"testing"
)

// TestSnapshotCached pins the scrape-path optimization: once the metric
// set is stable, snapshot allocates nothing (the sorted slice and every
// label key are cached at registration).
func TestSnapshotCached(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter("mpimon_jobs_total", L("job", strconv.Itoa(i)), L("kind", "rows")).Inc()
	}
	first := r.snapshot()
	if len(first) != 64 {
		t.Fatalf("snapshot has %d metrics, want 64", len(first))
	}
	if allocs := testing.AllocsPerRun(100, func() { r.snapshot() }); allocs != 0 {
		t.Fatalf("steady-state snapshot allocates %.1f times per call, want 0", allocs)
	}
	// Registering invalidates the cache exactly once.
	r.Gauge("mpimon_live", L("job", "z"))
	if got := len(r.snapshot()); got != 65 {
		t.Fatalf("snapshot has %d metrics after registration, want 65", got)
	}
}

// TestSnapshotOrderStable pins that the cached order equals the original
// family-then-label-signature sort.
func TestSnapshotOrderStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("x", "2"))
	r.Counter("a_total")
	r.Counter("b_total", L("x", "1"))
	ms := r.snapshot()
	got := make([]string, len(ms))
	for i, m := range ms {
		got[i] = m.family + m.labelSig
	}
	want := []string{"a_total", "b_total|x=1", "b_total|x=2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", got, want)
		}
	}
}

// BenchmarkPrometheusScrape measures the /metrics render under many
// per-job label sets — the path the sorted-key cache serves.
func BenchmarkPrometheusScrape(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 256; i++ {
		r.Counter("mpimon_rows_total", L("job", strconv.Itoa(i))).Add(uint64(i))
		r.Gauge("mpimon_epochs_live", L("job", strconv.Itoa(i))).Set(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
