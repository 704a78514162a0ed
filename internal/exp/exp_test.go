package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpimon/internal/golden"
	"mpimon/internal/hwcount"
)

func TestHWCountersAgree(t *testing.T) {
	cfg := DefaultHWCounters
	cfg.Duration = 5 * time.Second // scaled down
	res, err := HWCounters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes == 0 {
		t.Fatal("no traffic observed")
	}
	// Fig. 2/3's point: both observers see the same traffic; the NIC and
	// the library totals agree exactly and the cumulative divergence is
	// at most one message (what is buffered but not yet on the wire).
	if hw, mon := hwcount.Total(res.HW), hwcount.Total(res.Mon); hw != mon {
		t.Fatalf("NIC saw %d bytes, introspection %d", hw, mon)
	}
	if res.MaxLagBytes > int64(DefaultHWCounters.MaxBytes) {
		t.Fatalf("cumulative divergence %d exceeds one message", res.MaxLagBytes)
	}
	var buf bytes.Buffer
	res.PrintSeries(&buf, false)
	if !strings.Contains(buf.String(), "time_s") {
		t.Fatal("series printer produced no header")
	}
	res.PrintSeries(&buf, true)
}

// TestOverheadSmall: Fig. 4 in virtual time. The monitor charges no
// virtual time, so at every size the monitored median reduce equals the
// unmonitored one exactly.
func TestOverheadSmall(t *testing.T) {
	cfg := OverheadConfig{NPs: []int{8}, Sizes: []int{16, 1024}, Reps: 30}
	rows, err := Overhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Unmonitored <= 0 || r.Monitored != r.Unmonitored {
			t.Fatalf("np=%d size=%d: monitored %v, unmonitored %v; want equal and positive", r.NP, r.Size, r.Monitored, r.Unmonitored)
		}
	}
	var buf bytes.Buffer
	PrintOverhead(&buf, rows)
	if got := strings.Count(buf.String(), "\t+0.000\n"); got != 2 {
		t.Fatalf("overhead table has %d zero diff_us cells, want 2:\n%s", got, buf.String())
	}
}

func TestCollectiveOptShape(t *testing.T) {
	cfg := CollOptConfig{Op: "reduce", NPs: []int{48}, BufSizes: []int{20000}, Reps: 3}
	rows, err := CollectiveOpt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Fig. 5's shape: for large buffers the reordered collective is
	// clearly faster than the round-robin baseline.
	if r.ReorderMs >= r.NoMonMs {
		t.Fatalf("reduce not improved by reordering: %.2f ms vs %.2f ms", r.ReorderMs, r.NoMonMs)
	}
	cfgB := CollOptConfig{Op: "bcast", NPs: []int{48}, BufSizes: []int{20000}, Reps: 3}
	rowsB, err := CollectiveOpt(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if rowsB[0].ReorderMs >= rowsB[0].NoMonMs {
		t.Fatalf("bcast not improved by reordering: %+v", rowsB[0])
	}
	var buf bytes.Buffer
	PrintCollOpt(&buf, append(rows, rowsB...))
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("collopt printer produced no header")
	}
}

func TestCollectiveOptUnknownOp(t *testing.T) {
	_, err := CollectiveOpt(CollOptConfig{Op: "scan", NPs: []int{8}, BufSizes: []int{1}, Reps: 1})
	if err == nil {
		t.Fatal("unknown op should fail")
	}
}

func TestHeatmapCrossover(t *testing.T) {
	cfg := HeatmapConfig{NPs: []int{48}, BufSizes: []int{10, 50000}, Iters: []int{1, 200}}
	cells, err := ReorderHeatmap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]HeatCell{}
	for _, c := range cells {
		byKey[[2]int{c.BufInts, c.Iters}] = c
	}
	// Fig. 6's shape: tiny buffer, single iteration -> reordering cost
	// dominates (negative gain); large buffer, many iterations ->
	// substantial positive gain.
	if g := byKey[[2]int{10, 1}].GainPct; g >= 0 {
		t.Fatalf("1 iteration of 10 ints should not amortize the reordering, gain %+.1f%%", g)
	}
	if g := byKey[[2]int{50000, 200}].GainPct; g <= 20 {
		t.Fatalf("200 iterations of 50000 ints should gain clearly, gain %+.1f%%", g)
	}
	var buf bytes.Buffer
	PrintHeatmap(&buf, cells)
	if !strings.Contains(buf.String(), "gain_pct") {
		t.Fatal("heatmap printer produced no header")
	}
}

func TestCGReorderShape(t *testing.T) {
	cfg := CGConfig{Classes: []string{"B"}, NPs: []int{64}, Mappings: []string{"rr"}, Niter: 2, Seed: 1}
	rows, err := CGReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	golden.Check(t, fmt.Sprintf("base total %d\nreordered total %d\nbase comm %d\nreordered comm %d\n",
		r.BaseTotal, r.ReordTotal, r.BaseComm, r.ReordComm))
	// Fig. 7's shape: ratios at or above 1 (reordering never loses), and
	// the communication ratio at least as large as the total ratio.
	if r.TotalRatio < 1 {
		t.Errorf("reordering lost on CG: total ratio %.3f", r.TotalRatio)
	}
	if r.CommRatio < r.TotalRatio {
		t.Errorf("comm ratio %.3f should be >= total ratio %.3f", r.CommRatio, r.TotalRatio)
	}
	var buf bytes.Buffer
	PrintCG(&buf, rows)
	if !strings.Contains(buf.String(), "comm_ratio") {
		t.Fatal("cg printer produced no header")
	}
}

func TestTreeMatchScaleGrows(t *testing.T) {
	cfg := TMScaleConfig{Orders: []int{1024, 2048}, ClusterSize: 32, Seed: 7}
	// Host time: each order keeps the fastest of three mappings, so one GC
	// pause or descheduling during a ~10 ms mapping cannot invert the pair.
	var rows []TMRow
	for rep := 0; rep < 3; rep++ {
		got, err := TreeMatchScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%d rows", len(got))
		}
		if rows == nil {
			rows = got
		}
		for i := range rows {
			rows[i].Seconds = min(rows[i].Seconds, got[i].Seconds)
		}
	}
	// Table 1's shape: superlinear growth — doubling the order should
	// more than double the time (quadratic-ish); just require growth.
	if rows[1].Seconds <= rows[0].Seconds {
		t.Fatalf("mapping time did not grow with order: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTMScale(&buf, rows)
	if !strings.Contains(buf.String(), "reordering_time_s") {
		t.Fatal("tm printer produced no header")
	}
}

func TestNodesHelper(t *testing.T) {
	if Nodes(48) != 2 || Nodes(49) != 3 || Nodes(1) != 1 {
		t.Fatal("Nodes helper wrong")
	}
	if nasCGNodes(64) != 3 || nasCGNodes(128) != 6 || nasCGNodes(256) != 11 || nasCGNodes(16) != 1 {
		t.Fatal("nasCGNodes wrong")
	}
}

func TestCGPlacements(t *testing.T) {
	cfg := CGConfig{Classes: []string{"S"}, NPs: []int{16}, Mappings: []string{"random", "rr", "standard"}, Niter: 1, Seed: 3}
	rows, err := CGReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if _, err := CGReorder(CGConfig{Classes: []string{"S"}, NPs: []int{16}, Mappings: []string{"bogus"}, Niter: 1}); err == nil {
		t.Fatal("unknown mapping should fail")
	}
	if _, err := CGReorder(CGConfig{Classes: []string{"Z"}, NPs: []int{16}, Mappings: []string{"rr"}, Niter: 1}); err == nil {
		t.Fatal("unknown class should fail")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2,30 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 30 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts(""); err == nil {
		t.Fatal("empty list should fail")
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("non-numeric should fail")
	}
}

func TestParseStrings(t *testing.T) {
	got := parseStrings(" a, ,b ,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("parseStrings = %v", got)
	}
}

func TestRenderHeatmap(t *testing.T) {
	cells := []HeatCell{
		{NP: 48, BufInts: 1, Iters: 1, GainPct: -50},
		{NP: 48, BufInts: 1, Iters: 100, GainPct: 10},
		{NP: 48, BufInts: 1000, Iters: 1, GainPct: 55},
		{NP: 48, BufInts: 1000, Iters: 100, GainPct: 93},
	}
	var buf bytes.Buffer
	RenderHeatmap(&buf, cells)
	out := buf.String()
	for _, want := range []string{"NP = 48", "#", "+", ".", "-", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestHWCountersDeterministic: the virtual-time experiments must be fully
// reproducible for a fixed seed — a property real-testbed measurements
// cannot have, and one of the reasons to simulate.
func TestHWCountersDeterministic(t *testing.T) {
	cfg := DefaultHWCounters
	cfg.Duration = 2 * time.Second
	a, err := HWCounters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HWCounters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mon) != len(b.Mon) {
		t.Fatal("series lengths differ between identical runs")
	}
	for i := range a.Mon {
		if a.Mon[i] != b.Mon[i] || a.HW[i] != b.HW[i] {
			t.Fatalf("bin %d differs between identical runs", i)
		}
	}
	cfg.Seed = 99
	c, err := HWCounters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hwcount.Total(c.Mon) == hwcount.Total(a.Mon) {
		t.Fatal("different seeds produced identical traffic (suspicious)")
	}
}

// TestCollOptDeterministic: the Fig. 5 measurement must reproduce exactly
// for the same configuration.
func TestCollOptDeterministic(t *testing.T) {
	cfg := CollOptConfig{Op: "bcast", NPs: []int{48}, BufSizes: []int{5000}, Reps: 3}
	a, err := CollectiveOpt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectiveOpt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].NoMonMs != b[0].NoMonMs {
		t.Fatalf("baseline medians differ: %v vs %v", a[0].NoMonMs, b[0].NoMonMs)
	}
}
