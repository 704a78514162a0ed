package mpi

import (
	"fmt"
	"slices"

	"mpimon/internal/pml"
)

// State returns everything observable about a finished world as keyed,
// line-oriented text in a fixed order. Each line starts with its section,
// then the rank or node it is about:
//
//	clock <rank> <virtual ns>
//	mpitime <rank> <ns inside MPI calls>
//	<class>.count <rank> <dst>:<messages> ...  (nonzero entries; no line for an empty row)
//	<class>.bytes <rank> <dst>:<bytes> ...
//	nic <node> <data bytes> <packets>
//	failed <rank> ...
//	dead <node> ...
//
// Two worlds that ran the same program identically have equal texts; the
// exactness pins compare and record this text with package golden.
func (w *World) State() string {
	var b []byte
	for r, p := range w.procs {
		b = fmt.Appendf(b, "clock %d %d\n", r, p.clock)
	}
	for r, p := range w.procs {
		b = fmt.Appendf(b, "mpitime %d %d\n", r, p.mpiTime)
	}
	row := make([]uint64, w.size)
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		for i, read := range [...]func(*pml.Monitor, pml.Class, []uint64){(*pml.Monitor).Counts, (*pml.Monitor).Bytes} {
			for r, p := range w.procs {
				read(p.mon, cl, row)
				line := fmt.Appendf(nil, "%v.%s %d", cl, [...]string{"count", "bytes"}[i], r)
				head := len(line)
				for dst, v := range row {
					if v != 0 {
						line = fmt.Appendf(line, " %d:%d", dst, v)
					}
				}
				if len(line) > head {
					b = append(append(b, line...), '\n')
				}
			}
		}
	}
	for n := 0; n < w.mach.Topo.NumNodes(); n++ {
		b = fmt.Appendf(b, "nic %d %d %d\n", n, w.net.XmitData(n), w.net.XmitPackets(n))
	}
	dead := w.DeadNodes()
	slices.Sort(dead)
	b = appendList(append(b, "failed"...), w.FailedRanks())
	b = appendList(append(b, "dead"...), dead)
	return string(b)
}

// appendList appends " x0 x1 ...\n" to b.
func appendList(b []byte, xs []int) []byte {
	for _, x := range xs {
		b = fmt.Appendf(b, " %d", x)
	}
	return append(b, '\n')
}
