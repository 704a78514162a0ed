package mpi

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

// scrape renders the hub's registry as Prometheus text and returns every
// sample of the four message-counter families, keyed by family, then rank,
// then the other label (class or ctx).
func scrape(t *testing.T, tel *telemetry.Telemetry) map[string]map[string]map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, tel.Registry()); err != nil {
		t.Error(err)
		return nil
	}
	out := map[string]map[string]map[string]uint64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		series, val, ok := strings.Cut(line, " ")
		family, labels, _ := strings.Cut(series, "{")
		switch family {
		case "mpimon_messages_total", "mpimon_bytes_total", "mpimon_comm_messages_total", "mpimon_comm_bytes_total":
		default:
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if !ok || err != nil {
			t.Errorf("unparsable sample %q", line)
			return nil
		}
		var rank, other string
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, lv, _ := strings.Cut(l, "=")
			if k == "rank" {
				rank = strings.Trim(lv, `"`)
			} else {
				other = k + "=" + lv
			}
		}
		if out[family] == nil {
			out[family] = map[string]map[string]uint64{}
		}
		if out[family][rank] == nil {
			out[family][rank] = map[string]uint64{}
		}
		out[family][rank][other] = v
	}
	return out
}

// TestTelemetryCountersExact pins the per-rank telemetry counters to the
// pml monitor they mirror, on the engine-equivalence workload at np 4 and
// 256 under both engines. Per rank and class, mpimon_messages_total and
// mpimon_bytes_total equal the sums of that rank's pml count and byte
// rows; per rank, the mpimon_comm_* families sum to the same totals.
func TestTelemetryCountersExact(t *testing.T) {
	for _, np := range []int{4, 256} {
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			if testing.Short() && np > 4 {
				t.Skip("large pin skipped in -short")
			}
			for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
				tel := telemetry.New()
				w := runEngine(t, np, eng, equivWorkload, WithTelemetry(tel))
				requireCountersMatchMonitor(t, w, scrape(t, tel), eng.Name())
			}
		})
	}
}

// TestTelemetryScrapeMidRun scrapes from another goroutine while the ranks
// run the engine-equivalence workload twice: continuously, and once on a
// handshake with rank 0 between its two passes. Every counter is written
// in place with no barrier in front, so no scrape may read a value above
// the final one, the handshake scrape must read a run in progress, and the
// final values stay exact.
func TestTelemetryScrapeMidRun(t *testing.T) {
	const np = 4
	for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
		tel := telemetry.New()
		var (
			wg      sync.WaitGroup
			scrapes []map[string]map[string]map[string]uint64
		)
		mid, scraped, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-mid:
					scrapes = append(scrapes, scrape(t, tel))
					scraped <- struct{}{}
				case <-done:
					return
				default:
					scrapes = append(scrapes, scrape(t, tel))
				}
			}
		}()
		w := runEngine(t, np, eng, func(c *Comm) error {
			if err := equivWorkload(c); err != nil {
				return err
			}
			if c.Rank() == 0 {
				mid <- struct{}{}
				<-scraped
			}
			return equivWorkload(c)
		}, WithTelemetry(tel))
		close(done)
		wg.Wait()
		final := scrape(t, tel)
		requireCountersMatchMonitor(t, w, final, eng.Name())
		total := func(s map[string]map[string]map[string]uint64) (n uint64) {
			for _, series := range s["mpimon_messages_total"] {
				n += sumValues(series)
			}
			return n
		}
		midRun := 0
		for i, s := range scrapes {
			if n := total(s); n > 0 && n < total(final) {
				midRun++
			}
			for family, ranks := range s {
				for rank, series := range ranks {
					for label, v := range series {
						if f := final[family][rank][label]; v > f {
							t.Fatalf("%s: scrape %d read %s{rank=%s,%s} = %d above the final %d",
								eng.Name(), i, family, rank, label, v, f)
						}
					}
				}
			}
		}
		t.Logf("%s: %d scrapes, %d of them mid-run", eng.Name(), len(scrapes), midRun)
		if midRun == 0 {
			t.Fatalf("%s: no scrape read a run in progress", eng.Name())
		}
	}
}

// TestCommCountersFollowContext interleaves sends on COMM_WORLD and on a
// split communicator, blocking and nonblocking, so every rank's last-context
// memo switches on every message: each communicator's counters get exactly
// its own traffic.
func TestCommCountersFollowContext(t *testing.T) {
	const np, rounds = 4, 6
	tel := telemetry.New()
	subCtx := make([]int, np)
	w := runEngine(t, np, EngineEvent, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		subCtx[c.Rank()] = userCtx(sub.ctx)
		right, left := (c.Rank()+1)%np, (c.Rank()+np-1)%np
		for i := 0; i < rounds; i++ {
			if err := c.SendN(right, i, 100); err != nil {
				return err
			}
			if i%2 == 0 {
				err = sub.SendN(1-sub.Rank(), i, 10)
			} else {
				var req *Request
				if req, err = sub.IsendN(1-sub.Rank(), i, 10); err == nil {
					_, err = req.Wait()
				}
			}
			if err != nil {
				return err
			}
			if _, err := c.Recv(left, i, nil); err != nil {
				return err
			}
			if _, err := sub.Recv(1-sub.Rank(), i, nil); err != nil {
				return err
			}
		}
		return nil
	}, WithTelemetry(tel))
	got := scrape(t, tel)
	requireCountersMatchMonitor(t, w, got, "split")
	for r := 0; r < np; r++ {
		rank, ctx := strconv.Itoa(r), `ctx="`+strconv.Itoa(subCtx[r])+`"`
		if n, b := got["mpimon_comm_messages_total"][rank][ctx], got["mpimon_comm_bytes_total"][rank][ctx]; n != rounds || b != rounds*10 {
			t.Fatalf("rank %d: split communicator %s counted %d messages, %d bytes; want %d, %d", r, ctx, n, b, rounds, rounds*10)
		}
		if n := sumValues(got["mpimon_comm_messages_total"][rank]) - rounds; n < rounds {
			t.Fatalf("rank %d: the other contexts counted %d messages, want at least the %d on COMM_WORLD", r, n, rounds)
		}
	}
}

func requireCountersMatchMonitor(t *testing.T, w *World, got map[string]map[string]map[string]uint64, what string) {
	t.Helper()
	np := w.Size()
	var msgs, byts uint64
	row := make([]uint64, np)
	for r := 0; r < np; r++ {
		rank := strconv.Itoa(r)
		var rankMsgs, rankBytes uint64
		for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
			class := `class="` + cl.String() + `"`
			w.Proc(r).Monitor().Counts(cl, row)
			n := sum(row)
			w.Proc(r).Monitor().Bytes(cl, row)
			b := sum(row)
			if g := got["mpimon_messages_total"][rank][class]; g != n {
				t.Fatalf("%s: rank %d %v: mpimon_messages_total = %d, pml counts sum to %d", what, r, cl, g, n)
			}
			if g := got["mpimon_bytes_total"][rank][class]; g != b {
				t.Fatalf("%s: rank %d %v: mpimon_bytes_total = %d, pml bytes sum to %d", what, r, cl, g, b)
			}
			rankMsgs += n
			rankBytes += b
		}
		if g := sumValues(got["mpimon_comm_messages_total"][rank]); g != rankMsgs {
			t.Fatalf("%s: rank %d: mpimon_comm_messages_total sums to %d, pml counts to %d", what, r, g, rankMsgs)
		}
		if g := sumValues(got["mpimon_comm_bytes_total"][rank]); g != rankBytes {
			t.Fatalf("%s: rank %d: mpimon_comm_bytes_total sums to %d, pml bytes to %d", what, r, g, rankBytes)
		}
		msgs += rankMsgs
		byts += rankBytes
	}
	if msgs == 0 || byts == 0 {
		t.Fatalf("%s: the workload recorded %d messages, %d bytes", what, msgs, byts)
	}
}

func sum(row []uint64) (s uint64) {
	for _, v := range row {
		s += v
	}
	return s
}

func sumValues(m map[string]uint64) (s uint64) {
	for _, v := range m {
		s += v
	}
	return s
}

// TestHubReusedAcrossWorldsRetainsNothing builds 10 and then 100 more empty
// worlds of 48 ranks on one hub, as a driver does that shares a hub across
// a sweep: a finished world may leave nothing behind in the hub, so the
// live heap and the registry's series stay the same.
func TestHubReusedAcrossWorldsRetainsNothing(t *testing.T) {
	const np = 48
	tel := telemetry.New()
	worlds := func(n int) {
		for i := 0; i < n; i++ {
			w, err := NewWorld(equivMachine(np), np, WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(func(c *Comm) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() (heap uint64, series int) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, tel.Registry()); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		return ms.HeapAlloc, series
	}
	worlds(10)
	heap10, series10 := live()
	worlds(100)
	heap110, series110 := live()
	runtime.KeepAlive(tel)
	t.Logf("live heap %d B after 10 worlds, %d B after 110; %d series", heap10, heap110, series110)
	if series110 != series10 {
		t.Fatalf("registry holds %d series after 110 worlds, %d after 10", series110, series10)
	}
	if grew := int64(heap110) - int64(heap10); grew >= 256<<10 {
		t.Fatalf("live heap grew by %d B over 100 more worlds, want < 256 KiB", grew)
	}
}
