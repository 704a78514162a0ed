package commitagg

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkCommitAgg is the heavy-churn microbenchmark of the cells: one
// shard with the six per-class cells a rank's message recorder owns (three
// message counters, three byte counters), every op recording one message (a count update plus a byte
// update) to a rotating class, sinks being shared atomic counters — the
// exact shape of the telemetry hot path. The custom metrics are the
// point: folds/op is sink commits per logical update (the acceptance
// bar wants the default policy ≥5× below eager's 1.0) and updates/fold
// its reciprocal amortization factor.
func BenchmarkCommitAgg(b *testing.B) {
	policies := []struct {
		name string
		pol  Policy
	}{
		{"eager", Eager},
		{"default", Default()},
	}
	// The sweep grid (threshold x interval) that picked DefaultThreshold;
	// kept here so a run re-measures the chosen point against its
	// neighbours.
	for _, th := range []int{16, 64, 256, 1024} {
		for _, iv := range []int64{-1, 100_000, 1_000_000} {
			policies = append(policies, struct {
				name string
				pol  Policy
			}{fmt.Sprintf("t%d-i%d", th, iv), Policy{Threshold: th, IntervalNs: iv}})
		}
	}

	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			var sunk [6]atomic.Int64
			s := NewShard(pc.pol)
			var cells [6]*Cell
			for i := range cells {
				i := i
				cells[i] = s.NewCell(func(d int64) { sunk[i].Add(d) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				class := i % 3
				now := int64(i) * 200 // ~200 virtual ns between messages
				s.Add(cells[class], 1, now)
				s.Add(cells[3+class], 4096, now)
			}
			s.Flush()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Folds)/float64(b.N*2), "folds/op")
			b.ReportMetric(st.UpdatesPerFold(), "updates/fold")

			// Exactness even under benchmark load: the barrier totals must
			// match the eager arithmetic.
			var wantCnt, wantByt int64
			for i := 0; i < b.N; i++ {
				if i%3 == 0 {
					wantCnt++
					wantByt += 4096
				}
			}
			if sunk[0].Load() != wantCnt || sunk[3].Load() != wantByt {
				b.Fatalf("class 0 totals %d/%d, want %d/%d",
					sunk[0].Load(), sunk[3].Load(), wantCnt, wantByt)
			}
		})
	}
}

// BenchmarkCommitAggContended measures the shared-cache-line scenario the
// layer removes: 8 producers hammering one shared atomic counter
// directly versus through per-producer shards at the default policy.
func BenchmarkCommitAggContended(b *testing.B) {
	b.Run("direct-shared-atomic", func(b *testing.B) {
		var shared atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				shared.Add(1)
			}
		})
	})
	b.Run("sharded-default", func(b *testing.B) {
		var shared atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			s := NewShard(Default())
			c := s.NewCell(func(d int64) { shared.Add(d) })
			var i int64
			for pb.Next() {
				i++
				s.Add(c, 1, i*200)
			}
			s.Flush()
		})
	})
}
