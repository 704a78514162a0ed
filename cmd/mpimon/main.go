// Command mpimon runs a built-in workload on the simulated cluster with
// introspection monitoring, prints the observed communication matrix, and
// optionally applies dynamic rank reordering, reporting the communication
// time before and after — a command-line tour of the library.
//
// Usage:
//
//	mpimon -workload groups -np 48 -topo 2x2x12 -placement rr -iters 20 -reorder
//
// Workloads: ring (neighbour ring), stencil (2D halo exchange), groups
// (block allgather groups), bcast, reduce, cg (NAS CG skeleton, class -class).
//
// Observability: -telemetry FILE writes the run's span tree as a Chrome
// trace-event file (or CSV when FILE ends in .csv), -serve ADDR exposes the
// run's metrics in Prometheus text format at ADDR/metrics after the
// workload completes (SIGINT/SIGTERM shut the endpoint down gracefully and
// exit 0; for a long-lived multi-job daemon see cmd/mpimond), and -json
// replaces the human-readable report with a JSON document carrying the
// matrix and its matstat analysis.
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the run
// (see docs/PERFORMANCE.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpimon/internal/cg"
	"mpimon/internal/exp"
	"mpimon/internal/matstat"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
	"mpimon/internal/trace"
	"mpimon/internal/treematch"
)

// config carries every knob of one mpimon invocation; the tests drive run
// and execute through it directly.
type config struct {
	workload  string
	np        int
	topoSpec  string
	placement string
	iters     int
	bytes     int
	class     string
	reorder   bool
	matrix    bool
	analyze   bool
	jsonOut   bool
	traceFile string
	telemetry string
	serve     string
	seed      int64
	cpuprof   string
	memprof   string
	stdout    io.Writer // defaults to os.Stdout
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mpimon:", err)
		os.Exit(1)
	}
}

// parseFlags reads one invocation's flags; the flag package has already
// reported a returned error on stderr.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("mpimon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "groups", "ring | stencil | groups | bcast | reduce | cg")
	fs.IntVar(&cfg.np, "np", 48, "number of ranks")
	fs.StringVar(&cfg.topoSpec, "topo", "", "topology spec (e.g. 2x2x12); default: enough PlaFRIM nodes")
	fs.StringVar(&cfg.placement, "placement", "rr", "initial mapping: rr | packed | random")
	fs.IntVar(&cfg.iters, "iters", 10, "iterations of the workload")
	fs.IntVar(&cfg.bytes, "bytes", 1<<16, "per-message payload bytes")
	fs.StringVar(&cfg.class, "class", "B", "NPB class for -workload cg")
	fs.BoolVar(&cfg.reorder, "reorder", false, "apply dynamic rank reordering after one monitored iteration")
	fs.BoolVar(&cfg.matrix, "matrix", false, "print the full communication matrix")
	fs.BoolVar(&cfg.analyze, "analyze", false, "print matrix statistics (volume, locality, top pairs)")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report (matrix + analysis included) as JSON")
	fs.StringVar(&cfg.traceFile, "trace", "", "write a merged post-mortem event trace to this file")
	fs.StringVar(&cfg.telemetry, "telemetry", "", "write the telemetry span tree to this file (.csv for CSV, Chrome trace JSON otherwise)")
	fs.StringVar(&cfg.serve, "serve", "", "after the run, serve Prometheus metrics on this address (e.g. :9464)")
	fs.Int64Var(&cfg.seed, "seed", 1, "random placement seed")
	fs.StringVar(&cfg.cpuprof, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&cfg.memprof, "memprofile", "", "write a pprof heap profile (after the run) to this file")
	err := fs.Parse(args)
	return cfg, err
}

// report is what one run produces; with -json it is marshalled verbatim.
type report struct {
	Workload  string    `json:"workload"`
	NP        int       `json:"np"`
	Topology  string    `json:"topology"`
	Placement string    `json:"placement"`
	Iters     int       `json:"iters"`
	BaseNs    int64     `json:"baseline_ns"`
	Messages  uint64    `json:"messages"`
	Bytes     uint64    `json:"bytes"`
	Matrix    []uint64  `json:"matrix,omitempty"` // row-major bytes, n-by-n
	Analysis  *analysis `json:"analysis,omitempty"`
	ReorderNs int64     `json:"reordered_ns,omitempty"`
	GainPct   float64   `json:"gain_percent,omitempty"`
	K         []int     `json:"k,omitempty"`
}

// analysis is the matstat view of the gathered matrix.
type analysis struct {
	TotalBytes   uint64         `json:"total_bytes"`
	NonzeroPairs int            `json:"nonzero_pairs"`
	AvgDegree    float64        `json:"avg_degree"`
	Imbalance    float64        `json:"imbalance"`
	NodeFraction float64        `json:"node_fraction"`
	TopPairs     []matstat.Pair `json:"top_pairs"`
}

func run(cfg config) error {
	if cfg.stdout == nil {
		cfg.stdout = os.Stdout
	}
	stopProf, err := exp.ProfileSetup(cfg.cpuprof, cfg.memprof)
	if err != nil {
		return err
	}
	rep, tel, err := execute(&cfg)
	// Profiles cover the workload, not the reporting (or a -serve loop).
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(cfg.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if cfg.telemetry != "" {
		if err := writeTelemetry(cfg.telemetry, tel); err != nil {
			return err
		}
	}
	if cfg.serve != "" {
		fmt.Fprintf(cfg.stdout, "serving Prometheus metrics on %s/metrics\n", cfg.serve)
		return serveMetrics(cfg.serve, tel.Registry(), cfg.stdout)
	}
	return nil
}

// serveMetrics exposes the registry until SIGINT/SIGTERM, then drains
// in-flight scrapes with http.Server.Shutdown under a deadline and
// returns nil — a clean exit 0 instead of the historical ListenAndServe
// block that only death could end.
func serveMetrics(addr string, reg *telemetry.Registry, out io.Writer) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: metricsHandler(reg)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(shCtx)
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// metricsHandler serves the registry in Prometheus text exposition format
// at /metrics (and the root, for convenience). Only GET is answered;
// anything else gets 405 with an Allow header.
func metricsHandler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	h := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	mux.HandleFunc("/metrics", h)
	mux.HandleFunc("/", h)
	return mux
}

// writeTelemetry exports the span tree, picking the format by extension.
func writeTelemetry(path string, tel *telemetry.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = telemetry.WriteCSV(f, tel.Spans())
	} else {
		err = telemetry.WriteChromeTrace(f, tel.Spans())
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// execute builds the world, runs the workload under monitoring (and
// reordering when asked) and returns the collected report plus the
// telemetry hub (always non-nil; empty when neither -telemetry nor -serve
// asked for instrumentation but kept to keep the flow uniform).
func execute(cfg *config) (*report, *telemetry.Telemetry, error) {
	var mach *netsim.Machine
	if cfg.topoSpec == "" {
		mach = netsim.PlaFRIM((cfg.np + 23) / 24)
	} else {
		topo, err := topology.Parse(cfg.topoSpec)
		if err != nil {
			return nil, nil, err
		}
		mach = netsim.Generic(topo)
	}
	var place []int
	var err error
	switch cfg.placement {
	case "rr":
		place, err = treematch.PlacementRoundRobin(cfg.np, mach.Topo)
	case "packed", "standard":
		place = treematch.PlacementPacked(cfg.np)
	case "random":
		place, err = treematch.PlacementRandom(cfg.np, mach.Topo, cfg.seed)
	default:
		err = fmt.Errorf("unknown placement %q", cfg.placement)
	}
	if err != nil {
		return nil, nil, err
	}

	phase, err := makePhase(cfg.workload, cfg.np, cfg.bytes, cfg.class)
	if err != nil {
		return nil, nil, err
	}

	tel := telemetry.New()
	opts := []mpi.Option{mpi.WithPlacement(place), mpi.WithEngine(mpi.EngineEvent)}
	if cfg.telemetry != "" || cfg.serve != "" {
		opts = append(opts, mpi.WithTelemetry(tel))
	}
	w, err := mpi.NewWorld(mach, cfg.np, opts...)
	if err != nil {
		return nil, nil, err
	}
	quiet := cfg.jsonOut
	out := cfg.stdout
	if !quiet {
		fmt.Fprintf(out, "workload=%s np=%d topo=%s placement=%s iters=%d\n",
			cfg.workload, cfg.np, mach.Topo, cfg.placement, cfg.iters)
	}

	rep := &report{
		Workload:  cfg.workload,
		NP:        cfg.np,
		Topology:  mach.Topo.String(),
		Placement: cfg.placement,
		Iters:     cfg.iters,
	}
	tracers := make([]*trace.Tracer, cfg.np)
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		p := c.Proc()
		if cfg.traceFile != "" {
			tr := trace.NewTracer(c.Rank())
			tracers[c.Rank()] = tr
			p.Monitor().AddRecorder(tr.Record)
		}

		// Monitored baseline phase.
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		t0 := p.Clock()
		for i := 0; i < cfg.iters; i++ {
			if err := phase(c); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		baseline := p.Clock() - t0
		if err := s.Suspend(); err != nil {
			return err
		}
		matC, matB, err := s.RootgatherData(0, monitoring.AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			var msgs, vol uint64
			for i := range matC {
				msgs += matC[i]
				vol += matB[i]
			}
			rep.BaseNs = int64(baseline)
			rep.Messages = msgs
			rep.Bytes = vol
			if !quiet {
				fmt.Fprintf(out, "baseline: %v for %d iterations; %d messages, %.1f MB monitored\n",
					baseline, cfg.iters, msgs, float64(vol)/1e6)
			}
			if cfg.matrix || cfg.jsonOut {
				rep.Matrix = matB
				if !quiet {
					printMatrix(out, matB, cfg.np)
				}
			}
			if cfg.analyze || cfg.jsonOut {
				a, err := analyzeMatrix(sparsemat.DenseView(matB, cfg.np), mach, place)
				if err != nil {
					return err
				}
				rep.Analysis = a
				if !quiet {
					printAnalysis(out, a)
				}
			}
		}

		if !cfg.reorder {
			return s.Free()
		}
		opt, k, err := reorder.Reorder(s)
		if err != nil {
			return err
		}
		if err := s.Free(); err != nil {
			return err
		}
		t0 = p.Clock()
		for i := 0; i < cfg.iters; i++ {
			if err := phase(opt); err != nil {
				return err
			}
		}
		if err := opt.Barrier(); err != nil {
			return err
		}
		after := p.Clock() - t0
		if c.Rank() == 0 {
			rep.ReorderNs = int64(after)
			rep.GainPct = 100 * float64(baseline-after) / float64(baseline)
			rep.K = k
			if !quiet {
				fmt.Fprintf(out, "reordered: %v for %d iterations (gain %.1f%%); k[0:8]=%v\n",
					after, cfg.iters, rep.GainPct, k[:min(8, len(k))])
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if cfg.traceFile != "" {
		var all []trace.Event
		for _, tr := range tracers {
			if tr != nil {
				all = append(all, tr.Events()...)
			}
		}
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return nil, nil, err
		}
		if err := trace.Write(f, trace.Merge(all)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
		if !quiet {
			fmt.Fprintf(out, "trace: %d events written to %s\n", len(all), cfg.traceFile)
		}
	}
	return rep, tel, nil
}

func makePhase(workload string, np, bytes int, class string) (func(*mpi.Comm) error, error) {
	switch workload {
	case "ring":
		return func(c *mpi.Comm) error {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() - 1 + c.Size()) % c.Size()
			_, err := c.SendrecvN(next, 1, bytes, prev, 1)
			return err
		}, nil
	case "stencil":
		nx := 1
		for (nx+1)*(nx+1) <= np {
			nx++
		}
		return func(c *mpi.Comm) error {
			if c.Rank() >= nx*nx {
				return c.Barrier()
			}
			x, y := c.Rank()/nx, c.Rank()%nx
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				px, py := x+d[0], y+d[1]
				if px < 0 || px >= nx || py < 0 || py >= nx {
					continue
				}
				partner := px*nx + py
				if _, err := c.SendrecvN(partner, 2, bytes, partner, 2); err != nil {
					return err
				}
			}
			return c.Barrier()
		}, nil
	case "groups":
		groups := (np + 23) / 24
		if groups < 2 {
			groups = 2
		}
		return func(c *mpi.Comm) error {
			groupSize := c.Size() / groups
			if groupSize == 0 {
				groupSize = 1
			}
			sub, err := c.Split(c.Rank()/groupSize, c.Rank())
			if err != nil {
				return err
			}
			return sub.AllgatherN(bytes)
		}, nil
	case "bcast":
		return func(c *mpi.Comm) error { return c.BcastN(bytes, 0) }, nil
	case "reduce":
		return func(c *mpi.Comm) error { return c.ReduceN(bytes, 0) }, nil
	case "cg":
		cls, err := cg.ClassByName(class)
		if err != nil {
			return nil, err
		}
		return func(c *mpi.Comm) error {
			_, err := cg.Run(c, cg.Config{Class: cls, Mode: cg.Skeleton, Niter: 1})
			return err
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
}

func analyzeMatrix(v sparsemat.MatrixView, mach *netsim.Machine, place []int) (*analysis, error) {
	sum, err := matstat.Summarize(v)
	if err != nil {
		return nil, err
	}
	loc, err := matstat.ComputeLocality(v, mach.Topo, place)
	if err != nil {
		return nil, err
	}
	pairs, err := matstat.TopPairs(v, 5)
	if err != nil {
		return nil, err
	}
	return &analysis{
		TotalBytes:   sum.Total,
		NonzeroPairs: sum.NonzeroPairs,
		AvgDegree:    sum.AvgDegree,
		Imbalance:    sum.Imbalance(),
		NodeFraction: loc.NodeFraction(),
		TopPairs:     pairs,
	}, nil
}

func printAnalysis(w io.Writer, a *analysis) {
	fmt.Fprintf(w, "analysis: %.1f MB over %d pairs, avg degree %.1f, sender imbalance %.2f\n",
		float64(a.TotalBytes)/1e6, a.NonzeroPairs, a.AvgDegree, a.Imbalance)
	fmt.Fprintf(w, "analysis: %.1f%% of traffic stays within a node under this placement\n",
		100*a.NodeFraction)
	fmt.Fprintln(w, "analysis: heaviest pairs:")
	for _, p := range a.TopPairs {
		fmt.Fprintf(w, "  %3d -> %3d : %.2f MB\n", p.Src, p.Dst, float64(p.Bytes)/1e6)
	}
}

func printMatrix(w io.Writer, mat []uint64, n int) {
	fmt.Fprintln(w, "# bytes matrix (row = sender):")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, mat[i*n+j])
		}
		fmt.Fprintln(w)
	}
}
