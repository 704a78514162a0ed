package monitoring

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mpimon/internal/mpi"
	"mpimon/internal/pml"
	"mpimon/internal/sparsemat"
)

// refKey addresses one cell of the reference model: a class and a rank
// (a world rank in snapshots, a communicator rank in accumulated data).
type refKey struct {
	class pml.Class
	rank  int
}

// refCell is one (message count, byte count) pair of the model.
type refCell struct{ cnt, byt uint64 }

// refSession is the reference a Session is compared against: the
// library's semantics written as plain maps. A Start or Continue takes a
// snapshot of the members' pvar values keyed by world rank; a Suspend adds
// each member's nonzero difference to the accumulated data keyed by
// communicator rank; Reset clears the accumulated data.
type refSession struct {
	s      *Session
	member map[int]int // world rank -> communicator rank
	n      int
	state  State
	snap   map[refKey]refCell
	acc    map[refKey]refCell
	epochs uint64 // Suspends so far: the next exported epoch
	// With an exporter installed, the row and epoch it saw last and how
	// many times it ran.
	exporter bool
	last     sparsemat.Row
	lastEp   uint64
	exports  int
}

// readPml reads every class's counters of the process's monitor densely
// into a map of the touched (class, world rank) cells.
func readPml(mon *pml.Monitor) map[refKey]refCell {
	out := map[refKey]refCell{}
	cnt := make([]uint64, mon.Size())
	byt := make([]uint64, mon.Size())
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		mon.Counts(cl, cnt)
		mon.Bytes(cl, byt)
		for wr := range cnt {
			if cnt[wr] != 0 {
				out[refKey{cl, wr}] = refCell{cnt[wr], byt[wr]}
			}
		}
	}
	return out
}

func (r *refSession) snapshot(cur map[refKey]refCell) {
	r.snap = map[refKey]refCell{}
	for k, v := range cur {
		if _, ok := r.member[k.rank]; ok {
			r.snap[k] = v
		}
	}
}

func (r *refSession) suspend(cur map[refKey]refCell) {
	for k, v := range cur {
		ci, ok := r.member[k.rank]
		if !ok {
			continue
		}
		base := r.snap[k]
		dc, db := v.cnt-base.cnt, v.byt-base.byt
		if dc == 0 && db == 0 {
			continue
		}
		a := r.acc[refKey{k.class, ci}]
		r.acc[refKey{k.class, ci}] = refCell{a.cnt + dc, a.byt + db}
	}
}

// data is Data and SparseData of the model for a valid flags value.
func (r *refSession) data(flags Flags) (counts, bytes []uint64, row sparsemat.Row) {
	counts, bytes = make([]uint64, r.n), make([]uint64, r.n)
	in := map[int32]bool{}
	for k, v := range r.acc {
		if flags&(1<<k.class) == 0 {
			continue
		}
		counts[k.rank] += v.cnt
		bytes[k.rank] += v.byt
		in[int32(k.rank)] = true
	}
	for ci := range r.n {
		if in[int32(ci)] {
			row.Dst = append(row.Dst, int32(ci))
			row.Cnt = append(row.Cnt, counts[ci])
			row.Byt = append(row.Byt, bytes[ci])
		}
	}
	return counts, bytes, row
}

// lifecycleErr is the error the library must return for a lifecycle
// operation in the model's current state.
func (r *refSession) lifecycleErr(op string) error {
	switch {
	case r.state == Freed:
		return ErrInvalidMsid
	case op == "suspend" && r.state == Suspended, op == "continue" && r.state == Active:
		return ErrMultipleCall
	case (op == "reset" || op == "free") && r.state == Active:
		return ErrSessionNotSuspended
	}
	return nil
}

func sameRow(a, b sparsemat.Row) bool {
	return slices.Equal(a.Dst, b.Dst) && slices.Equal(a.Cnt, b.Cnt) && slices.Equal(a.Byt, b.Byt)
}

// checkData compares Data and SparseData of a session with the model for
// every flags value, the invalid ones included.
func (r *refSession) checkData() error {
	for flags := Flags(-1); flags <= AllComm+1; flags++ {
		counts, bytes, err := r.s.Data(flags)
		row, rerr := r.s.SparseData(flags)
		var want error
		switch {
		case flags <= 0 || flags > AllComm:
			want = ErrInvalidFlags
		case r.state == Freed:
			want = ErrInvalidMsid
		case r.state == Active:
			want = ErrSessionNotSuspended
		}
		if !errors.Is(err, want) || !errors.Is(rerr, want) || (want == nil) != (err == nil) || (want == nil) != (rerr == nil) {
			return fmt.Errorf("session %d (%v) flags %d: Data error %v, SparseData error %v, want %v", r.s.ID(), r.state, flags, err, rerr, want)
		}
		if want != nil {
			continue
		}
		wc, wb, wrow := r.data(flags)
		if !slices.Equal(counts, wc) || !slices.Equal(bytes, wb) {
			return fmt.Errorf("session %d flags %d: Data = %v / %v, model %v / %v", r.s.ID(), flags, counts, bytes, wc, wb)
		}
		if !sameRow(row, wrow) {
			return fmt.Errorf("session %d flags %d: SparseData = %+v, model %+v", r.s.ID(), flags, row, wrow)
		}
	}
	return nil
}

// modelComms are the communicators sessions attach to: COMM_WORLD, a
// parity split (ranks ascend by world rank), a split into thirds keyed in
// reverse and a whole-world split keyed by a stride (neither ascends).
func modelComms(c *mpi.Comm) ([]*mpi.Comm, error) {
	np, me := c.Size(), c.Rank()
	comms := []*mpi.Comm{c}
	for _, ck := range [][2]int{{me % 2, me}, {me % 3, np - me}, {0, (me * 5) % np}} {
		sub, err := c.Split(ck[0], ck[1])
		if err != nil {
			return nil, err
		}
		comms = append(comms, sub)
	}
	return comms, nil
}

// TestSessionsAgainstModel drives seeded random interleavings of Start,
// Suspend, Continue, Reset and Free over overlapping sessions on
// COMM_WORLD and on split communicators, between point-to-point,
// collective and one-sided traffic, and compares every session's Data and
// SparseData under every flags value, its exported rows, its lifecycle
// errors and its sparse allgather with the map model of refSession. Every
// rank draws the same operation stream, so collective calls match up.
func TestSessionsAgainstModel(t *testing.T) {
	for _, np := range []int{6, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("np%d/seed%d", np, seed), func(t *testing.T) {
				run(t, np, func(c *mpi.Comm) error {
					if err := modelRun(c, seed); err != nil {
						return fmt.Errorf("rank %d: %w", c.Rank(), err)
					}
					return nil
				})
			})
		}
	}
}

func modelRun(c *mpi.Comm, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	np, me := c.Size(), c.Rank()
	mon := c.Proc().Monitor()
	comms, err := modelComms(c)
	if err != nil {
		return err
	}
	win, err := c.CreateWin(make([]byte, 64))
	if err != nil {
		return err
	}
	env, err := Init(c.Proc())
	if err != nil {
		return err
	}
	var refs []*refSession
	live := func() int {
		k := 0
		for _, r := range refs {
			if r.state != Freed {
				k++
			}
		}
		return k
	}
	const ops = 250
	for op := 0; op < ops; op++ {
		var err error
		x := rng.Intn(100)
		// pick draws a session; every rank draws the same one.
		pick := func() *refSession { return refs[rng.Intn(len(refs))] }
		switch {
		case x < 12: // Start
			comm := comms[rng.Intn(len(comms))]
			withExporter := rng.Intn(2) == 0
			if live() >= 6 {
				break
			}
			var s *Session
			if s, err = env.Start(comm); err != nil {
				break
			}
			r := &refSession{s: s, member: map[int]int{}, n: comm.Size(), state: Active, acc: map[refKey]refCell{}}
			for ci := range comm.Size() {
				r.member[comm.WorldRank(ci)] = ci
			}
			r.snapshot(readPml(mon))
			if r.exporter = withExporter; withExporter {
				s.SetRowExporter(func(epoch uint64, rank, n int, row sparsemat.Row) error {
					if rank != comm.Rank() || n != comm.Size() {
						return fmt.Errorf("exporter called with rank %d of %d", rank, n)
					}
					r.last, r.lastEp = row, epoch
					r.exports++
					return nil
				})
			}
			refs = append(refs, r)
			if len(refs) > 12 { // forget freed sessions so the draw stays on live ones
				refs = slices.DeleteFunc(refs, func(r *refSession) bool { return r.state == Freed })
			}
		case x < 52 && len(refs) > 0: // a lifecycle operation
			r := pick()
			name := []string{"suspend", "continue", "reset", "free"}[rng.Intn(4)]
			want := r.lifecycleErr(name)
			cur := readPml(mon)
			var got error
			switch name {
			case "suspend":
				exports := r.exports
				if got = r.s.Suspend(); want == nil {
					r.suspend(cur)
					r.state = Suspended
					if r.exporter {
						if _, _, wrow := r.data(AllComm); r.exports != exports+1 || r.lastEp != r.epochs || !sameRow(r.last, wrow) {
							return fmt.Errorf("op %d: session %d exported %d rows, the last of epoch %d %+v; want one of epoch %d %+v",
								op, r.s.ID(), r.exports-exports, r.lastEp, r.last, r.epochs, wrow)
						}
					}
					r.epochs++
				}
			case "continue":
				if got = r.s.Continue(); want == nil {
					r.snapshot(cur)
					r.state = Active
				}
			case "reset":
				if got = r.s.Reset(); want == nil {
					r.acc = map[refKey]refCell{}
				}
			case "free":
				if got = r.s.Free(); want == nil {
					r.state = Freed
				}
			}
			if !errors.Is(got, want) || (want == nil) != (got == nil) {
				return fmt.Errorf("op %d: %s of session %d (%v): %v, want %v", op, name, r.s.ID(), r.state, got, want)
			}
		case x < 72: // point-to-point traffic, some of it to non-members
			pairs := make([][3]int, 1+rng.Intn(2*np))
			for i := range pairs {
				src := rng.Intn(np)
				dst := (src + 1 + rng.Intn(np-1)) % np
				pairs[i] = [3]int{src, dst, rng.Intn(3) * rng.Intn(5000)}
			}
			for _, p := range pairs {
				switch me {
				case p[0]:
					err = c.SendN(p[1], 3, p[2])
				case p[1]:
					_, err = c.Recv(p[0], 3, nil)
				}
				if err != nil {
					break
				}
			}
		case x < 84: // collective traffic on a communicator
			comm := comms[rng.Intn(len(comms))]
			size, root := rng.Intn(3000), rng.Intn(np)%comm.Size()
			switch rng.Intn(4) {
			case 0:
				err = comm.BcastN(size, root)
			case 1:
				err = comm.AllgatherN(size)
			case 2:
				err = comm.ReduceN(size, root)
			case 3:
				err = comm.Barrier()
			}
		case x < 90: // one-sided traffic
			src, dst, size := rng.Intn(np), rng.Intn(np), 1+rng.Intn(64)
			if me == src && dst != src {
				err = win.Put(dst, 0, make([]byte, size))
			}
			if err == nil {
				err = win.Fence()
			}
		case x < 94 && len(refs) > 0: // a sparse allgather leaves the pvars alone
			r := pick()
			flags := Flags(1 + rng.Intn(int(AllComm)))
			if r.state != Suspended {
				break
			}
			before := readPml(mon)
			var m *sparsemat.Matrix
			if m, err = r.s.AllgatherSparse(flags); err != nil {
				break
			}
			_, _, wrow := r.data(flags)
			if own := m.Rows[r.s.Comm().Rank()]; !sameRow(own, wrow) {
				return fmt.Errorf("op %d: allgathered own row %+v, model %+v", op, own, wrow)
			}
			if after := readPml(mon); !maps.Equal(after, before) {
				return fmt.Errorf("op %d: the allgather reached the pml counters", op)
			}
		default:
			for _, r := range refs {
				if err := r.checkData(); err != nil {
					return fmt.Errorf("op %d: %w", op, err)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	for _, r := range refs {
		if err := r.checkData(); err != nil {
			return err
		}
		if r.state == Active {
			if err := r.s.Suspend(); err != nil {
				return err
			}
		}
	}
	if err := win.Free(); err != nil {
		return err
	}
	return env.Finalize()
}
