package mpi

// The Bruck alltoallv of the portfolio (see internal/coll). It is the one
// collective that stays code rather than a schedule (coll_sched.go): what a
// round sends is a frame packed from the blocks the rank holds, whose sizes
// depend on what earlier rounds delivered, so its send list is not a
// function of the step alone. Like every other collective it decomposes
// into point-to-point messages on the collective context, entered once as
// Comm.exec enters it, so the monitoring layer observes its real traffic
// pattern — a different matrix than Alltoallv's, which is what the
// autotuner's cost tables capture.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AlltoallvBruck exchanges variable-length blocks with the Bruck
// algorithm: ceil(log2 n) store-and-forward rounds of packed frames
// instead of the pairwise exchange's n-1 rounds. Rank r first stages its
// block for destination (r+j)%n at relative index j; round k ships every
// staged block whose index has bit k set to rank (r+2^k)%n. Fewer, larger
// messages — the latency-optimal choice for many small blocks, and a
// different traffic matrix than Alltoallv, which is why the portfolio
// exposes both.
func (c *Comm) AlltoallvBruck(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("alltoallv.bruck")()
	c.p.beginInternal()
	defer c.p.endInternal()
	saved := c.ctx
	c.ctx = c.collCtx()
	err := c.alltoallvBruck(send, scounts, sdispls, recv, rcounts, rdispls)
	c.ctx = saved
	return c.herr(err)
}

func (c *Comm) alltoallvBruck(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	n := len(c.group)
	if err := c.checkAlltoallvArgs(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	copy(recv[rdispls[c.rank]:rdispls[c.rank]+rcounts[c.rank]], send[sdispls[c.rank]:sdispls[c.rank]+scounts[c.rank]])
	if n == 1 {
		return nil
	}

	// staging[j] holds the block currently travelling at relative index
	// j; initially my block for destination (rank+j)%n, finally the block
	// from source (rank-j+n)%n addressed to me. The initial blocks share
	// one array, each capped at its own length so that a longer block
	// arriving later moves out instead of overwriting its neighbour.
	staging := make([][]byte, n)
	total := 0
	for d := range scounts {
		if d != c.rank {
			total += scounts[d]
		}
	}
	back := make([]byte, 0, total)
	for j := 1; j < n; j++ {
		d := (c.rank + j) % n
		lo := len(back)
		back = append(back, send[sdispls[d]:sdispls[d]+scounts[d]]...)
		staging[j] = back[lo:len(back):len(back)]
	}

	round := 0
	for mask := 1; mask < n; mask, round = mask<<1, round+1 {
		dst := (c.rank + mask) % n
		src := (c.rank - mask + n) % n
		if err := c.send(dst, tagBruck+round, bruckFrame(staging, mask), c.p.class()); err != nil {
			return err
		}
		m, err := c.recvMsg(src, tagBruck+round)
		if err != nil {
			return err
		}
		err = decodeBruckFrame(m.data, n, staging)
		m.release()
		if err != nil {
			return fmt.Errorf("mpi: bruck frame from rank %d: %w", src, err)
		}
	}

	for s := 0; s < n; s++ {
		if s == c.rank {
			continue
		}
		j := (c.rank - s + n) % n
		if len(staging[j]) != rcounts[s] {
			return fmt.Errorf("mpi: bruck alltoallv rank %d sent %d bytes, expected %d", s, len(staging[j]), rcounts[s])
		}
		copy(recv[rdispls[s]:rdispls[s]+rcounts[s]], staging[j])
	}
	return nil
}

// bruckFrame packs every staged block whose index has mask's bit set into
// one exact-size pooled message: a uvarint block count, then {uvarint
// index, uvarint length, payload} triples in ascending index order.
func bruckFrame(staging [][]byte, mask int) *message {
	cnt, size := 0, 0
	for j := 1; j < len(staging); j++ {
		if j&mask != 0 {
			cnt++
			size += uvarintLen(uint64(j)) + uvarintLen(uint64(len(staging[j]))) + len(staging[j])
		}
	}
	m := getMsg(uvarintLen(uint64(cnt))+size, true)
	b := m.data[binary.PutUvarint(m.data, uint64(cnt)):]
	for j := 1; j < len(staging); j++ {
		if j&mask != 0 {
			b = b[binary.PutUvarint(b, uint64(j)):]
			b = b[binary.PutUvarint(b, uint64(len(staging[j]))):]
			b = b[copy(b, staging[j]):]
		}
	}
	return m
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// decodeBruckFrame copies every block of a frame built by bruckFrame into
// staging[j], for its index j, which must lie in [1, n). It reads in where
// it arrived and keeps no reference to it. A frame that is truncated, names
// an index outside [1, n) or has bytes after its last block is an error;
// the blocks before the fault have been staged by then.
func decodeBruckFrame(in []byte, n int, staging [][]byte) error {
	cnt, in, err := bruckUvarint(in)
	if err != nil {
		return err
	}
	for b := uint64(0); b < cnt; b++ {
		var j, blen uint64
		if j, in, err = bruckUvarint(in); err != nil {
			return err
		}
		if blen, in, err = bruckUvarint(in); err != nil {
			return err
		}
		if j == 0 || j >= uint64(n) || blen > uint64(len(in)) {
			return fmt.Errorf("corrupt (index %d, length %d, %d bytes left)", j, blen, len(in))
		}
		staging[j] = append(staging[j][:0], in[:blen]...)
		in = in[blen:]
	}
	if len(in) != 0 {
		return fmt.Errorf("%d trailing bytes", len(in))
	}
	return nil
}

// bruckUvarint decodes one uvarint from a Bruck frame, returning the rest.
func bruckUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, errors.New("truncated")
	}
	return v, b[k:], nil
}
