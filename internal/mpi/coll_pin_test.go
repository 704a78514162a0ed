package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"mpimon/internal/netsim"
	"mpimon/internal/pml"
)

// pinPayload is rank's deterministic payload of n bytes, distinct per salt.
func pinPayload(rank, n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((rank*131 + i*7 + salt*29) % 251)
	}
	return b
}

// pinCounts are the v-collectives' block sizes and gapped displacements.
func pinCounts(np int) (counts, displs []int, total int) {
	counts, displs = make([]int, np), make([]int, np)
	for i := range counts {
		counts[i] = 10 + 7*i
		displs[i] = total
		total += counts[i] + 3
	}
	return counts, displs, total
}

// pinAlltoallv is rank's send layout of the alltoallv cases and, from it,
// the receive layout every peer's send layout implies.
func pinAlltoallv(rank, np int) (sc, sd, rc, rd []int, slen, rlen int) {
	sc, sd, rc, rd = make([]int, np), make([]int, np), make([]int, np), make([]int, np)
	for j := 0; j < np; j++ {
		sc[j] = (rank + 2*j) % 5 * 9
		sd[j] = slen
		slen += sc[j]
		rc[j] = (j + 2*rank) % 5 * 9
		rd[j] = rlen
		rlen += rc[j]
	}
	return sc, sd, rc, rd, slen, rlen
}

// pinnedCollectives is every collective entry point of the package. call
// runs it on c with root (ignored where the collective has none), each
// buffer size passed through size, and returns the buffer that holds this
// rank's result, nil for none.
var pinnedCollectives = []struct {
	name   string
	rooted bool
	call   func(c *Comm, root int, size func(int) int) ([]byte, error)
}{
	{"Barrier", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) { return nil, c.Barrier() }},
	{"Bcast", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		buf := make([]byte, size(70000))
		if c.Rank() == root {
			buf = pinPayload(root, len(buf), 1)
		}
		return buf, c.Bcast(buf, root)
	}},
	{"BcastN", true, func(c *Comm, root int, size func(int) int) ([]byte, error) { return nil, c.BcastN(size(70000), root) }},
	{"Reduce", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		if c.Rank() != root {
			recv = nil
		}
		return recv, c.Reduce(send, recv, Int64, OpSum, root)
	}},
	{"ReduceN", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		return nil, c.ReduceN(size(pinReduceBytes(c)), root)
	}},
	{"ReduceBinomial", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		if c.Rank() != root {
			recv = nil
		}
		return recv, c.ReduceBinomial(send, recv, Int64, OpSum, root)
	}},
	{"Allreduce", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.Allreduce(send, recv, Int64, OpSum)
	}},
	{"Gather", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		var recv []byte
		if c.Rank() == root {
			recv = make([]byte, size(100*c.Size()))
		}
		return recv, c.Gather(pinPayload(c.Rank(), size(100), 2), recv, root)
	}},
	{"GatherN", true, func(c *Comm, root int, size func(int) int) ([]byte, error) { return nil, c.GatherN(size(100), root) }},
	{"Allgather", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		recv := make([]byte, size(100*c.Size()))
		return recv, c.Allgather(pinPayload(c.Rank(), size(100), 3), recv)
	}},
	{"AllgatherN", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) { return nil, c.AllgatherN(size(100)) }},
	{"Scatter", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		recv := make([]byte, size(100))
		return recv, c.Scatter(pinPayload(c.Rank(), size(100*c.Size()), 4), recv, root)
	}},
	{"Alltoall", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		recv := make([]byte, size(64*c.Size()))
		return recv, c.Alltoall(pinPayload(c.Rank(), size(64*c.Size()), 5), recv)
	}},
	{"AllreduceRD", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.AllreduceRD(send, recv, Int64, OpSum)
	}},
	{"ReduceScatterBlock", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		recv := make([]byte, size(40))
		return recv, c.ReduceScatterBlock(pinPayload(c.Rank(), size(40*c.Size()), 6), recv, Int64, OpSum)
	}},
	{"BcastSAG", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		buf := make([]byte, size(1500*c.Size()))
		if c.Rank() == root {
			buf = pinPayload(root, len(buf), 7)
		}
		return buf, c.BcastSAG(buf, root)
	}},
	{"AllgatherRD", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		recv := make([]byte, size(100*c.Size()))
		return recv, c.AllgatherRD(pinPayload(c.Rank(), size(100), 8), recv)
	}},
	{"Scan", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.Scan(send, recv, Int64, OpSum)
	}},
	{"Exscan", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.Exscan(send, recv, Int64, OpSum)
	}},
	{"Gatherv", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		counts, displs, total := pinCounts(c.Size())
		recv := make([]byte, size(total))
		return recv, c.Gatherv(pinPayload(c.Rank(), size(counts[c.Rank()]), 9), recv, counts, displs, root)
	}},
	{"Scatterv", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		counts, displs, total := pinCounts(c.Size())
		recv := make([]byte, size(counts[c.Rank()]))
		return recv, c.Scatterv(pinPayload(c.Rank(), size(total), 10), counts, displs, recv, root)
	}},
	{"Allgatherv", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		counts, displs, total := pinCounts(c.Size())
		recv := make([]byte, size(total))
		return recv, c.Allgatherv(pinPayload(c.Rank(), size(counts[c.Rank()]), 11), recv, counts, displs)
	}},
	{"AllreduceRing", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.AllreduceRing(send, recv, Int64, OpSum)
	}},
	{"AllreduceRab", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		send, recv := pinReduceBufs(c, size)
		return recv, c.AllreduceRab(send, recv, Int64, OpSum)
	}},
	{"AlltoallvBruck", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		sc, sd, rc, rd, slen, rlen := pinAlltoallv(c.Rank(), c.Size())
		recv := make([]byte, size(rlen))
		return recv, c.AlltoallvBruck(pinPayload(c.Rank(), size(slen), 12), sc, sd, recv, rc, rd)
	}},
	{"Alltoallv", false, func(c *Comm, _ int, size func(int) int) ([]byte, error) {
		sc, sd, rc, rd, slen, rlen := pinAlltoallv(c.Rank(), c.Size())
		recv := make([]byte, size(rlen))
		return recv, c.Alltoallv(pinPayload(c.Rank(), size(slen), 13), sc, sd, recv, rc, rd)
	}},
	{"GatherStream", true, func(c *Comm, root int, size func(int) int) ([]byte, error) {
		counts, _, _ := pinCounts(c.Size())
		var got []byte
		err := c.GatherStream(pinPayload(c.Rank(), size(counts[c.Rank()]), 14), root, func(src int, block []byte) error {
			got = append(append(got, byte(src)), block...)
			return nil
		})
		return got, err
	}},
}

// pinReduceBytes is the reductions' payload: just past the eager limit of
// PlaFRIM, in Int64 elements that split unevenly into np blocks.
func pinReduceBytes(c *Comm) int { return (8200 + 3*c.Size()) * 8 }

func pinReduceBufs(c *Comm, size func(int) int) (send, recv []byte) {
	n := size(pinReduceBytes(c))
	return pinPayload(c.Rank(), n, 15), make([]byte, n)
}

// fullSize is the size function of the pins: every buffer as long as the
// collective asks for.
func fullSize(n int) int { return n }

// pinNPs are the group sizes of the pins: the trivial group, the small
// ragged and power-of-two ones, and the two-node PlaFRIM world.
var pinNPs = []int{1, 2, 3, 4, 7, 48}

// pinRoots are the roots a collective is pinned at: 0 and np-1, or -1 for
// a collective without a root.
func pinRoots(rooted bool, np int) []int {
	switch {
	case !rooted:
		return []int{-1}
	case np == 1:
		return []int{0}
	}
	return []int{0, np - 1}
}

// pinFingerprint hashes everything observable about a finished world: the
// clocks, the MPI times, every class's count and byte matrices, the NIC
// counters, then each rank's result buffer.
func pinFingerprint(w *World, results [][]byte) uint64 {
	fp := fingerprint(w)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for r := range fp.clocks {
		put(uint64(fp.clocks[r]))
		put(uint64(fp.mpiTimes[r]))
	}
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		for r := range fp.counts[cl] {
			for j := range fp.counts[cl][r] {
				put(fp.counts[cl][r][j])
				put(fp.bytes[cl][r][j])
			}
		}
	}
	for n := range fp.xmitData {
		put(uint64(fp.xmitData[n]))
		put(uint64(fp.xmitPkts[n]))
	}
	for _, res := range results {
		put(uint64(len(res)))
		h.Write(res)
	}
	return h.Sum64()
}

// TestCollectivesPinned pins every collective entry point, at every group
// size of pinNPs and, where it has a root, at roots 0 and np-1, to the
// dispatch count and the fingerprint (pinFingerprint) the hand-written
// algorithms produced on the event engine. testdata/collpin.txt holds one
// line per case: name, np, root (-1 for none), events, fingerprint.
func TestCollectivesPinned(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/collpin.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			want[strings.Join(fields[:3], " ")] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, pc := range pinnedCollectives {
		for _, np := range pinNPs {
			for _, root := range pinRoots(pc.rooted, np) {
				cases++
				w, err := NewWorld(netsim.PlaFRIM(2), np, WithEngine(EngineEvent))
				if err != nil {
					t.Fatal(err)
				}
				results := make([][]byte, np)
				if err := w.Run(func(c *Comm) error {
					res, err := pc.call(c, max(root, 0), fullSize)
					results[c.Rank()] = res
					return err
				}); err != nil {
					t.Errorf("%s np=%d root=%d: %v", pc.name, np, root, err)
					continue
				}
				key := fmt.Sprintf("%s %d %d", pc.name, np, root)
				got := fmt.Sprintf("%s %d %#016x", key, w.EngineStats().Events, pinFingerprint(w, results))
				if want[key] != got {
					t.Errorf("pinned %q, got %q", want[key], got)
				}
			}
		}
	}
	if cases != len(want) {
		t.Errorf("%d cases ran, %d pinned", cases, len(want))
	}
}
