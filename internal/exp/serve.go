package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mpimon/internal/commitagg"
	"mpimon/internal/monitoring"
	"mpimon/internal/monsvc"
	"mpimon/internal/mpi"
	"mpimon/internal/sparsemat"
)

// ServeConfig parameterizes the live-monitoring-service experiment: many
// simulated worlds run concurrently, each registering a job with one
// monitoring daemon and streaming its per-rank sparse rows on every
// Suspend. The experiment pins the online view: for every world, the
// matrices served over HTTP must be bit-identical to that world's own
// local gathers, and epochs beyond the retention window must be
// compacted away (HTTP 410).
type ServeConfig struct {
	// Worlds is the number of concurrent simulated jobs (≥ 8 in the
	// acceptance run).
	Worlds int
	// NP is the rank count per world; must be a perfect square (the
	// stencil grid is √np x √np).
	NP int
	// Epochs is the number of Suspend/Reset/Continue monitoring cycles
	// per world; each cycle streams one epoch of rows to the daemon.
	Epochs int
	// Retention is the daemon's K: live epochs kept per job before
	// compaction. Epochs > Retention exercises eviction.
	Retention int
	// Iters is the base halo-exchange count per epoch (epoch e runs
	// Iters+e, so epoch matrices differ).
	Iters int
	// MsgBytes is the base halo message size (world w sends
	// MsgBytes + 64w, so tenant matrices differ).
	MsgBytes int
	// BaseURL targets an external daemon (e.g. a running mpimond). Empty
	// starts an in-process daemon on a loopback listener.
	BaseURL string
	// ExportThreshold configures the batched row export: 0 batches one
	// epoch per frame (threshold = NP, so the world's last Suspend of an
	// epoch pushes everyone's rows in a single request), a positive value
	// is used as the commit threshold directly, and a negative value
	// restores the eager per-(rank, epoch) push path.
	ExportThreshold int
}

// DefaultServe is the acceptance configuration: 8 worlds, 4 epochs with
// a 2-epoch retention window, so every job has both live and compacted
// epochs.
var DefaultServe = ServeConfig{
	Worlds:    8,
	NP:        16,
	Epochs:    4,
	Retention: 2,
	Iters:     3,
	MsgBytes:  2048,
}

// ServeWorldRow is one world's outcome.
type ServeWorldRow struct {
	World int
	Job   string
	NP    int
	// EpochsPushed is the number of epochs the world streamed.
	EpochsPushed int
	// LiveMatched counts served live-epoch matrices (including "latest")
	// that were bit-identical to the world's local gather of that epoch;
	// LiveChecked is how many were compared.
	LiveMatched, LiveChecked int
	// CumulativeMatch reports whether the served cumulative matrix equals
	// the sum of every local epoch matrix.
	CumulativeMatch bool
	// EvictedGone reports whether epoch 0 — beyond the retention window —
	// was correctly answered with HTTP 410 Gone. False when retention
	// never evicted (Epochs <= Retention, not an error).
	EvictedGone bool
	// Evicted records whether the check above was applicable.
	Evicted     bool
	WallSeconds float64
}

// matched reports whether every applicable check of the row passed.
func (r ServeWorldRow) matched() bool {
	if r.LiveMatched != r.LiveChecked || r.LiveChecked == 0 || !r.CumulativeMatch {
		return false
	}
	return !r.Evicted || r.EvictedGone
}

// ServeResult is the experiment outcome.
type ServeResult struct {
	Worlds []ServeWorldRow
	// Matched counts worlds whose every served matrix passed the
	// bit-identical pin (and whose evicted epoch answered 410).
	Matched int
	// MaxLiveEpochs is the largest per-job live-epoch count observed on
	// the daemon after the run — bounded by Retention when the service
	// compacts correctly. -1 when an external daemon was targeted (its
	// job table is not inspectable from here).
	MaxLiveEpochs int
	// Stats aggregates the daemon's ingest counters (in-process daemon
	// only; zero otherwise).
	Stats monsvc.ServiceStats
	// RowsPerSec and BytesPerSec are end-to-end ingest rates over the
	// whole run (simulation included — the microbenchmark in
	// internal/monsvc pins the service-only rate).
	RowsPerSec, BytesPerSec float64
	WallSeconds             float64
}

// Serve runs the experiment: start (or dial) a daemon, run cfg.Worlds
// simulated worlds against it concurrently, and verify every served
// matrix against the worlds' local gathers.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	gx := intSqrt(cfg.NP)
	if gx*gx != cfg.NP {
		return nil, fmt.Errorf("exp: serve np %d is not a perfect square", cfg.NP)
	}
	if cfg.Worlds <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("exp: serve needs at least one world and one epoch")
	}

	base := cfg.BaseURL
	var svc *monsvc.Service
	if base == "" {
		svc = monsvc.New(monsvc.Config{RetentionEpochs: cfg.Retention})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("exp: serve listener: %w", err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		done := make(chan struct{})
		go func() { defer close(done); srv.Serve(l) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
			<-done
		}()
		base = "http://" + l.Addr().String()
	}
	// Many ranks push concurrently; keep connections warm instead of
	// churning one per request.
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * cfg.Worlds}}

	t0 := time.Now()
	rows := make([]ServeWorldRow, cfg.Worlds)
	errs := make([]error, cfg.Worlds)
	var wg sync.WaitGroup
	for wi := 0; wi < cfg.Worlds; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rows[wi], errs[wi] = serveOneWorld(wi, gx, base, httpc, cfg)
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: serve world %d: %w", wi, err)
		}
	}

	res := &ServeResult{Worlds: rows, MaxLiveEpochs: -1, WallSeconds: time.Since(t0).Seconds()}
	for _, r := range rows {
		if r.matched() {
			res.Matched++
		}
	}
	if svc != nil {
		res.MaxLiveEpochs = 0
		for _, info := range svc.Jobs() {
			if n := len(info.LiveEpochs); n > res.MaxLiveEpochs {
				res.MaxLiveEpochs = n
			}
		}
		res.Stats = svc.Stats()
		if res.WallSeconds > 0 {
			res.RowsPerSec = float64(res.Stats.Rows) / res.WallSeconds
			res.BytesPerSec = float64(res.Stats.IngestBytes) / res.WallSeconds
		}
	}
	return res, nil
}

// serveOneWorld runs one simulated world against the daemon and verifies
// its served matrices.
func serveOneWorld(wi, gx int, base string, httpc *http.Client, cfg ServeConfig) (ServeWorldRow, error) {
	t0 := time.Now()
	np := gx * gx
	client := monsvc.NewClient(base)
	client.HTTP = httpc
	if err := client.CreateJob(fmt.Sprintf("world-%02d", wi), np); err != nil {
		return ServeWorldRow{}, err
	}
	msgBytes := cfg.MsgBytes + 64*wi

	// One batching exporter per world, shared by all ranks: a world's
	// Suspends for an epoch coalesce into one ingest frame instead of np
	// requests. Threshold-only (the interval default is wall-clock, far
	// shorter than a simulated epoch); epochs always flush ascending, so
	// the daemon's retention watermark stays monotonic. Eager per-row
	// export remains available for A/B comparison.
	exporter := monitoring.RowExporter(client.ExportRow)
	var batch *monitoring.BatchingRowExporter
	if cfg.ExportThreshold >= 0 {
		th := cfg.ExportThreshold
		if th == 0 {
			th = np
		}
		batch = monitoring.NewBatchingRowExporter(client.ExportRowBatch,
			commitagg.Policy{Threshold: th, IntervalNs: -1})
		exporter = batch.Export
	}

	w, err := PlaFRIMWorld(np, nil)
	if err != nil {
		return ServeWorldRow{}, err
	}
	// localC/localB hold rank 0's gathered dense matrices, one per epoch —
	// the ground truth the served views must match bit for bit.
	localC := make([][]uint64, cfg.Epochs)
	localB := make([][]uint64, cfg.Epochs)
	// The only host watchdog among the drivers: Suspend posts rows over
	// HTTP from inside a rank, and a daemon (-daemon URL) that stops
	// answering blocks that rank on the host, where the engine's deadlock
	// detection cannot see it.
	err = w.RunWithTimeout(10*time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		s.SetRowExporter(exporter)
		for e := 0; e < cfg.Epochs; e++ {
			if err := StencilSkeleton(c, gx, cfg.Iters+e, msgBytes); err != nil {
				return err
			}
			// Suspend streams this rank's per-epoch row to the daemon
			// (the session was Reset after the previous epoch, so the row
			// is a delta, and the daemon's cumulative is the whole run).
			if err := s.Suspend(); err != nil {
				return err
			}
			mc, mb, err := s.RootgatherData(0, monitoring.AllComm)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				localC[e], localB[e] = mc, mb
			}
			if e < cfg.Epochs-1 {
				if err := s.Reset(); err != nil {
					return err
				}
				if err := s.Continue(); err != nil {
					return err
				}
			}
		}
		return s.Free()
	})
	if err != nil {
		return ServeWorldRow{}, err
	}
	// Barrier before reading the daemon's matrices: any rows still
	// pending in the batching exporter must be on the daemon first.
	if batch != nil {
		if err := batch.Flush(); err != nil {
			return ServeWorldRow{}, err
		}
	}

	row := ServeWorldRow{World: wi, Job: client.JobID, NP: np, EpochsPushed: cfg.Epochs}

	// Live epochs: the newest min(Epochs, Retention) must be served
	// bit-identically; "latest" must alias the newest.
	firstLive := cfg.Epochs - cfg.Retention
	if firstLive < 0 {
		firstLive = 0
	}
	for e := firstLive; e < cfg.Epochs; e++ {
		m, err := client.Matrix(strconv.Itoa(e))
		if err != nil {
			return row, fmt.Errorf("epoch %d: %w", e, err)
		}
		row.LiveChecked++
		if denseEqual(m, localC[e], localB[e]) {
			row.LiveMatched++
		}
	}
	latest, err := client.Matrix("latest")
	if err != nil {
		return row, fmt.Errorf("latest: %w", err)
	}
	row.LiveChecked++
	if denseEqual(latest, localC[cfg.Epochs-1], localB[cfg.Epochs-1]) {
		row.LiveMatched++
	}

	// Cumulative: compacted epochs + live window == sum of every epoch.
	sumC := make([]uint64, np*np)
	sumB := make([]uint64, np*np)
	for e := 0; e < cfg.Epochs; e++ {
		for i := range sumC {
			sumC[i] += localC[e][i]
			sumB[i] += localB[e][i]
		}
	}
	cum, err := client.Matrix("cumulative")
	if err != nil {
		return row, fmt.Errorf("cumulative: %w", err)
	}
	row.CumulativeMatch = denseEqual(cum, sumC, sumB)

	// Eviction: an epoch behind the retention window answers 410 Gone.
	if cfg.Epochs > cfg.Retention {
		row.Evicted = true
		_, err := client.Matrix("0")
		var se *monsvc.StatusError
		row.EvictedGone = errors.As(err, &se) && se.Code == http.StatusGone
	}
	row.WallSeconds = time.Since(t0).Seconds()
	return row, nil
}

// denseEqual reports whether the sparse matrix densifies to exactly the
// given count/byte matrices.
func denseEqual(m *sparsemat.Matrix, counts, bytes []uint64) bool {
	mc, mb := m.Dense()
	if len(mc) != len(counts) || len(mb) != len(bytes) {
		return false
	}
	for i := range mc {
		if mc[i] != counts[i] || mb[i] != bytes[i] {
			return false
		}
	}
	return true
}

// PrintServe writes the per-world table and the fleet summary.
func PrintServe(w io.Writer, res *ServeResult) {
	Fprintf(w, "# world\tjob\tnp\tepochs\tlive_ok\tcumulative\tevicted_410\twall_s\n")
	for _, r := range res.Worlds {
		ev := "n/a"
		if r.Evicted {
			ev = fmt.Sprintf("%v", r.EvictedGone)
		}
		Fprintf(w, "%d\t%s\t%d\t%d\t%d/%d\t%v\t%s\t%.2f\n",
			r.World, r.Job, r.NP, r.EpochsPushed, r.LiveMatched, r.LiveChecked,
			r.CumulativeMatch, ev, r.WallSeconds)
	}
	Fprintf(w, "# matched %d/%d worlds", res.Matched, len(res.Worlds))
	if res.MaxLiveEpochs >= 0 {
		Fprintf(w, "; max live epochs per job %d", res.MaxLiveEpochs)
	}
	if res.Stats.Rows > 0 {
		Fprintf(w, "; ingested %d rows / %d frames / %d wire bytes (%.0f rows/s, %.0f B/s)",
			res.Stats.Rows, res.Stats.Frames, res.Stats.IngestBytes, res.RowsPerSec, res.BytesPerSec)
	}
	Fprintf(w, "; wall %.2fs\n", res.WallSeconds)
}
