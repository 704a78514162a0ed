package monitoring

import (
	"runtime"
	"testing"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// footprintWorld builds an event-engine world of np ranks on enough
// PlaFRIM nodes, as the scale-setup benchmark does.
func footprintWorld(t *testing.T, np int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(netsim.PlaFRIM((np+23)/24), np, mpi.WithEngine(mpi.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// gridHalo runs iters exchanges of msg bytes with each neighbour on a
// gx-wide non-periodic grid, the scale-setup benchmark's traffic.
func gridHalo(c *mpi.Comm, gx, iters, msg int) error {
	me := c.Rank()
	x, y := me%gx, me/gx
	var nbs []int
	for _, nb := range [][3]int{{x - 1, y, me - 1}, {x + 1, y, me + 1}, {x, y - 1, me - gx}, {x, y + 1, me + gx}} {
		if nb[0] >= 0 && nb[0] < gx && nb[1] >= 0 && nb[1] < gx {
			nbs = append(nbs, nb[2])
		}
	}
	for it := 0; it < iters; it++ {
		for _, nb := range nbs {
			if err := c.SendN(nb, 1, msg); err != nil {
				return err
			}
		}
		for range nbs {
			if _, err := c.Recv(mpi.AnySource, 1, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// lifecycle is the monitoring a rank does in the footprint worlds: Init,
// a COMM_WORLD session around work, Suspend, then after, then Finalize.
func lifecycle(c *mpi.Comm, work, after func() error) error {
	env, err := Init(c.Proc())
	if err != nil {
		return err
	}
	s, err := env.Start(c)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err
	}
	if err := s.Suspend(); err != nil {
		return err
	}
	if err := after(); err != nil {
		return err
	}
	return env.Finalize()
}

// TestFootprint pins what the library costs each rank, against the same
// world without it:
//   - the lifecycle (Init, Start, Suspend, Finalize with no traffic) makes
//     at most 4 allocations per rank (the environment, the session and the
//     environment's session list make 3);
//   - at the scale-setup shape (a 64×64 halo grid, three exchanges of
//     4096 B, one COMM_WORLD session) the heap left live after Suspend is
//     at most 560 B per rank larger, read after two collections at a
//     barrier behind the Suspend.
func TestFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap and its allocations")
	}
	t.Run("lifecycle-allocs", func(t *testing.T) {
		const np = 1024
		mallocs := func(fn func(c *mpi.Comm) error) uint64 {
			w := footprintWorld(t, np)
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if err := w.Run(fn); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&b)
			return b.Mallocs - a.Mallocs
		}
		none := func() error { return nil }
		base := mallocs(func(*mpi.Comm) error { return nil })
		mon := mallocs(func(c *mpi.Comm) error { return lifecycle(c, none, none) })
		perRank := (float64(mon) - float64(base)) / np
		t.Logf("lifecycle: %.2f allocations per rank", perRank)
		if perRank > 4 {
			t.Errorf("Init+Start+Suspend+Finalize makes %.2f allocations per rank, want <= 4", perRank)
		}
	})
	t.Run("live-bytes", func(t *testing.T) {
		const gx, iters, msg = 64, 3, 4096
		const np = gx * gx
		live := func(monitored bool) uint64 {
			w := footprintWorld(t, np)
			var heap uint64
			halo := func(c *mpi.Comm) func() error {
				return func() error { return gridHalo(c, gx, iters, msg) }
			}
			measure := func(c *mpi.Comm) func() error {
				return func() error {
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						var ms runtime.MemStats
						runtime.GC()
						runtime.GC()
						runtime.ReadMemStats(&ms)
						heap = ms.HeapAlloc
					}
					return c.Barrier()
				}
			}
			err := w.Run(func(c *mpi.Comm) error {
				if monitored {
					return lifecycle(c, halo(c), measure(c))
				}
				if err := halo(c)(); err != nil {
					return err
				}
				return measure(c)()
			})
			if err != nil {
				t.Fatal(err)
			}
			return heap
		}
		without := live(false)
		with := live(true)
		perRank := (float64(with) - float64(without)) / np
		t.Logf("live monitoring state: %.0f B per rank (heap %d B without, %d B with)", perRank, without, with)
		if perRank > 560 {
			t.Errorf("a session holds %.0f B live per rank, want <= 560", perRank)
		}
	})
}
