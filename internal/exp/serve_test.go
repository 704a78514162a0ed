package exp

import "testing"

// TestServeAcceptance pins the live-service acceptance criteria: 8
// concurrent worlds against one daemon, every served matrix bit-identical
// to the world's local gather, cumulative equal to the epoch sum, epoch 0
// evicted (410), and per-job live state bounded by the retention window.
func TestServeAcceptance(t *testing.T) {
	cfg := DefaultServe // 8 worlds, 16 ranks, 4 epochs, retention 2
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Worlds) != cfg.Worlds || res.Matched != cfg.Worlds {
		t.Fatalf("matched %d/%d worlds", res.Matched, len(res.Worlds))
	}
	for _, r := range res.Worlds {
		if r.LiveMatched != r.LiveChecked || r.LiveChecked != cfg.Retention+1 {
			t.Fatalf("world %d: live matches %d/%d (want %d checks: retention window + latest)",
				r.World, r.LiveMatched, r.LiveChecked, cfg.Retention+1)
		}
		if !r.CumulativeMatch {
			t.Fatalf("world %d: cumulative mismatch", r.World)
		}
		if !r.Evicted || !r.EvictedGone {
			t.Fatalf("world %d: epoch 0 not evicted with 410 (evicted=%v gone=%v)",
				r.World, r.Evicted, r.EvictedGone)
		}
	}
	// Retention bounds the daemon's live state per job.
	if res.MaxLiveEpochs < 1 || res.MaxLiveEpochs > cfg.Retention {
		t.Fatalf("max live epochs %d, want 1..%d", res.MaxLiveEpochs, cfg.Retention)
	}
	// Every rank of every world pushed one row per epoch.
	wantRows := uint64(cfg.Worlds * cfg.NP * cfg.Epochs)
	if res.Stats.Rows != wantRows {
		t.Fatalf("daemon ingested %d rows, want %d", res.Stats.Rows, wantRows)
	}
	if res.Stats.IngestBytes == 0 || res.RowsPerSec <= 0 {
		t.Fatalf("throughput not recorded: %+v", res.Stats)
	}
}

// TestServeConfigValidation covers the driver's input checks.
func TestServeConfigValidation(t *testing.T) {
	bad := DefaultServe
	bad.NP = 15
	if _, err := Serve(bad); err == nil {
		t.Fatal("non-square np accepted")
	}
	bad = DefaultServe
	bad.Worlds = 0
	if _, err := Serve(bad); err == nil {
		t.Fatal("zero worlds accepted")
	}
	bad = DefaultServe
	bad.ExportThreshold = -1
	if _, err := Serve(bad); err == nil {
		t.Fatal("negative export threshold accepted")
	}
}

// TestServeNoEviction: with Epochs <= Retention nothing compacts and the
// eviction check reports not-applicable rather than failing.
func TestServeNoEviction(t *testing.T) {
	cfg := DefaultServe
	cfg.Worlds, cfg.Epochs, cfg.Retention = 2, 2, 4
	res, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 2 {
		t.Fatalf("matched %d/2", res.Matched)
	}
	for _, r := range res.Worlds {
		if r.Evicted {
			t.Fatalf("world %d claims eviction with Epochs <= Retention", r.World)
		}
	}
}
