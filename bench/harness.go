package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mpimon/internal/mpi"
)

// pass is one timed pass of a workload: host wall and CPU time, the
// virtual time the simulated program took, and whether a verifier rejected
// its output (which fails every unit of the pass).
type pass struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	VirtNs int64   `json:"virt_ns"`
	Failed bool    `json:"failed,omitempty"`
}

// runCtx is what one execution of a workload (one set-up, then timed passes
// until the budget is spent) reports into.
type runCtx struct {
	p      *params
	seed   int64
	budget time.Duration // zero: set-up and warm-up pass only
	tr     *tracer       // nil: tracing off

	start      time.Time
	timedStart time.Time
	setupS     float64
	units      int64 // per pass, set by the workload
	passes     []pass
	peakRSSMB  float64            // set by workloads whose passes are child processes
	exactVirt  bool               // event-engine workload: every pass must take the same virtual time
	layer      map[string]float64 // per-layer numbers the workload itself produces
	problems   []string

	cont atomic.Bool // rank 0's "another pass follows", published by the pass barrier
}

func newRunCtx(p *params, seed int64, budget time.Duration, tr *tracer) *runCtx {
	return &runCtx{p: p, seed: seed, budget: budget, tr: tr, start: time.Now(), layer: map[string]float64{}}
}

// setupDone marks the end of set-up (inputs, world, daemon, warm-up pass).
func (r *runCtx) setupDone() {
	r.timedStart = time.Now()
	r.setupS = r.timedStart.Sub(r.start).Seconds()
}

// more reports whether another timed pass fits the budget.
func (r *runCtx) more() bool {
	return r.budget > 0 && time.Since(r.timedStart) < r.budget
}

func (r *runCtx) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// failAll records a problem found only once the run is over, which fails
// every pass.
func (r *runCtx) failAll(format string, args ...any) {
	r.problem(format, args...)
	for i := range r.passes {
		r.passes[i].Failed = true
	}
}

// passTimer measures one pass from the goroutine that drives it.
type passTimer struct {
	t0  time.Time
	cpu float64
}

func startPass() passTimer { return passTimer{t0: time.Now(), cpu: cpuSeconds()} }

func (pt passTimer) stop(virt time.Duration, bad bool) pass {
	return pass{WallS: time.Since(pt.t0).Seconds(), CPUS: cpuSeconds() - pt.cpu, VirtNs: int64(virt), Failed: bad}
}

// repeat drives a workload whose passes are independent calls (a fresh
// world, a fresh process, or no world at all): one untimed warm-up pass ends
// set-up, then timed passes run until the budget is spent. body returns the
// pass's virtual time and whether a verifier rejected its output.
func (r *runCtx) repeat(body func(st *stages) (virt time.Duration, bad bool, err error)) error {
	for cycle := 0; ; cycle++ {
		st := r.beginPass(nil, cycle)
		pt := startPass()
		virt, bad, err := body(st)
		if err != nil {
			return err
		}
		st.close()
		if cycle == 0 {
			r.setupDone()
		} else {
			r.passes = append(r.passes, pt.stop(virt, bad))
		}
		if !r.more() {
			return nil
		}
	}
}

// inWorld drives a workload whose passes share one world: every rank calls
// it from inside World.Run with the same body. A mpi.World runs once, so
// passes are delimited by a Barrier and timed by rank 0; the barrier that
// closes a pass also publishes rank 0's decision whether another follows.
// The first cycle is the untimed warm-up pass that ends set-up. body returns
// whether a verifier rejected the pass (only rank 0's verdict is kept).
func (r *runCtx) inWorld(c *mpi.Comm, body func(st *stages) (bad bool, err error)) error {
	root := c.Rank() == 0
	p := c.Proc()
	for cycle := 0; ; cycle++ {
		var st *stages
		var pt passTimer
		var v0 time.Duration
		if root {
			st = r.beginPass(c, cycle)
			pt, v0 = startPass(), p.Clock()
		} else {
			st = &stages{c: c, traced: r.tr != nil}
		}
		bad, err := body(st)
		if err != nil {
			return err
		}
		if root {
			r.cont.Store(cycle == 0 && r.budget > 0 || cycle > 0 && r.more())
		}
		if err := st.next("mpi.Barrier"); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if root {
			st.close()
			if cycle == 0 {
				r.setupDone()
			} else {
				r.passes = append(r.passes, pt.stop(p.Clock()-v0, bad))
			}
		}
		if !r.cont.Load() {
			return nil
		}
	}
}

// beginPass opens the pass span (a no-op without a tracer).
func (r *runCtx) beginPass(c *mpi.Comm, cycle int) *stages {
	st := &stages{c: c, tr: r.tr, traced: r.tr != nil}
	name := "pass"
	if cycle == 0 {
		name = "warmup"
	}
	st.pass = r.tr.begin(name, 0)
	return st
}

// stages splits a pass into consecutive stage spans, one per call the
// workload makes into a layer. With tracing on, in-world stages are
// barrier-delimited: every rank enters a Barrier before the next stage, so
// rank 0's span is the wall time that stage took for the whole world. With
// tracing off next does nothing, and the workload's program has no extra
// barriers.
type stages struct {
	c      *mpi.Comm // nil outside World.Run
	tr     *tracer   // nil on every rank but the one recording
	traced bool
	pass   int
	cur    int
}

func (s *stages) next(name string) error {
	if s.traced && s.c != nil {
		if s.cur == 0 {
			// The barrier before a pass's first stage waits for nothing the
			// workload did.
			s.cur = s.tr.begin("bench.align", s.pass)
		}
		// Suppressed like the monitoring library's own collectives: the
		// tracing barriers are the harness's, not the workload's, and must
		// not show in gathered matrices or in the message count.
		mon := s.c.Proc().Monitor()
		mon.Suppress()
		err := s.c.Barrier()
		mon.Unsuppress()
		if err != nil {
			return err
		}
	}
	s.tr.end(s.cur)
	s.cur = s.tr.begin(name, s.pass)
	return nil
}

// enter gives the calling rank its stages inside the World.Run of a pass
// that builds its own world: rank 0 keeps recording into s, every other rank
// only joins the stage barriers. leave undoes it after Run.
func (s *stages) enter(c *mpi.Comm) *stages {
	if c.Rank() != 0 {
		return &stages{c: c, traced: s.traced}
	}
	s.c = c
	return s
}

func (s *stages) leave() { s.c = nil }

func (s *stages) close() {
	s.tr.end(s.cur)
	s.tr.end(s.pass)
	s.cur = 0
}

// cpuSeconds is the user+system CPU time of this process and of the children
// it has waited for (scale-setup's passes are child processes).
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		total += float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 + float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
	}
	return total
}

// peakRSSMB reads VmHWM, the calling process's peak resident set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// releaseHeap returns a finished world's memory to the OS, so that the next
// part of a traced run (its second world, each probe) starts from the same
// heap.
func releaseHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// allocDelta runs fn and returns the heap objects and bytes it allocated.
func allocDelta(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// quartiles is a sample summary: median, the quartiles
// statistics.quantiles(n=4) would give, and the sample count.
type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) quartiles {
	n := len(xs)
	if n == 0 {
		return quartiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles: position
	// k(n+1)/4 on the 1-based sorted sample, clamped to its ends.
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return quartiles{Median: at(2), Q1: at(1), Q3: at(3), N: n}
}

func median(xs []float64) float64 { return summarize(xs).Median }
