package mpi

// Bandwidth-optimal collective algorithms of the portfolio (see
// internal/coll): the ring allreduce, the Rabenseifner allreduce
// (reduce-scatter by recursive halving + allgather by recursive doubling),
// and the Bruck alltoallv. Like every other collective they decompose into
// point-to-point messages on the collective context, so the monitoring
// layer observes their real traffic pattern — which differs per algorithm,
// and is exactly what the autotuner's cost tables capture.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AllreduceRing performs an allreduce with the ring (reduce-scatter +
// allgather) algorithm: 2(n-1) neighbour exchanges of one n-th of the
// vector each. Every rank sends 2·(n-1)/n of the buffer in total, the
// bandwidth-optimal volume, at the price of a latency term linear in n —
// the classic choice for long vectors on large groups. Works for any
// group size; blocks are balanced element ranges (possibly empty).
func (c *Comm) AllreduceRing(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allreduce.ring")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allreduceRing(send, recv, dt, op))
}

func (c *Comm) allreduceRing(send, recv []byte, dt Datatype, op Op) error {
	if err := checkReduce("allreduce", send, recv, true, dt, op); err != nil {
		return err
	}
	n := len(c.group)
	copy(recv, send)
	if n == 1 {
		return nil
	}
	es := dt.Size()
	elems := len(send) / es
	// Block i covers elements [elems*i/n, elems*(i+1)/n): balanced, and
	// identical on every rank.
	lo := func(i int) int { return elems * i / n * es }
	ctx := c.collCtx()
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n

	// Reduce-scatter: in round s, pass the partial block (rank-s) to the
	// right and fold the arriving partial into block (rank-s-1). After
	// n-1 rounds, rank r holds the complete reduction of block (r+1)%n.
	for s := 0; s < n-1; s++ {
		si := (c.rank - s + n) % n
		ri := (c.rank - s - 1 + n) % n
		if err := c.sendCopyOn(ctx, right, tagRing+s, recv[lo(si):lo(si+1)]); err != nil {
			return err
		}
		blk := recv[lo(ri):lo(ri+1)]
		if err := c.recvReduceOn(ctx, left, tagRing+s, blk, blk, dt, op); err != nil {
			return err
		}
	}
	// Allgather: circulate the completed blocks the other n-1 rounds.
	for s := 0; s < n-1; s++ {
		si := (c.rank + 1 - s + n) % n
		ri := (c.rank - s + n) % n
		if err := c.sendCopyOn(ctx, right, tagRing+n+s, recv[lo(si):lo(si+1)]); err != nil {
			return err
		}
		if _, err := c.recvOn(ctx, left, tagRing+n+s, recv[lo(ri):lo(ri+1)]); err != nil {
			return err
		}
	}
	return nil
}

// AllreduceRab performs an allreduce with Rabenseifner's algorithm: a
// reduce-scatter by recursive vector halving, then an allgather by
// recursive doubling — log2(n) rounds each, moving 2·(n-1)/n of the buffer
// per rank like the ring but with a logarithmic latency term. Non-power-
// of-two groups apply the standard pre/post folding steps (as AllreduceRD
// does), so any group size works.
func (c *Comm) AllreduceRab(send, recv []byte, dt Datatype, op Op) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("allreduce.rab")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.allreduceRab(send, recv, dt, op))
}

func (c *Comm) allreduceRab(send, recv []byte, dt Datatype, op Op) error {
	if err := checkReduce("allreduce", send, recv, true, dt, op); err != nil {
		return err
	}
	n := len(c.group)
	copy(recv, send)
	if n == 1 {
		return nil
	}
	es := dt.Size()
	elems := len(send) / es
	ctx := c.collCtx()

	pof2, rem, newRank, err := c.foldIn(ctx, tagRab, recv, dt, op)
	if err != nil {
		return err
	}

	// level records one halving step so the doubling phase can replay it
	// in reverse; ranges are element indices.
	type level struct{ plo, phi, lo, hi int }
	var levels []level
	if newRank >= 0 {
		// Reduce-scatter by recursive halving: at each step, partners
		// split the current range in half, ship the half they give up,
		// and fold the half they keep.
		lvLo, lvHi := 0, elems
		for mask := pof2 >> 1; mask >= 1; mask >>= 1 {
			peer := foldPeer(newRank^mask, rem)
			mid := lvLo + (lvHi-lvLo)/2
			var sLo, sHi, kLo, kHi int
			if newRank&mask == 0 {
				sLo, sHi, kLo, kHi = mid, lvHi, lvLo, mid
			} else {
				sLo, sHi, kLo, kHi = lvLo, mid, mid, lvHi
			}
			if err := c.sendrecvReduceOn(ctx, peer, tagRab+2*mask, recv[sLo*es:sHi*es], recv[kLo*es:kHi*es], dt, op); err != nil {
				return err
			}
			levels = append(levels, level{plo: lvLo, phi: lvHi, lo: kLo, hi: kHi})
			lvLo, lvHi = kLo, kHi
		}
		// Allgather by recursive doubling: replay the levels in reverse;
		// at each step the partner holds exactly the sibling half of the
		// parent range.
		for i := len(levels) - 1; i >= 0; i-- {
			lv := levels[i]
			mask := pof2 >> (i + 1)
			peer := foldPeer(newRank^mask, rem)
			pLo, pHi := lv.phi, lv.phi
			if lv.lo == lv.plo {
				pLo, pHi = lv.hi, lv.phi
			} else {
				pLo, pHi = lv.plo, lv.lo
			}
			if err := c.sendCopyOn(ctx, peer, tagRab+2*mask+1, recv[lv.lo*es:lv.hi*es]); err != nil {
				return err
			}
			if _, err := c.recvOn(ctx, peer, tagRab+2*mask+1, recv[pLo*es:pHi*es]); err != nil {
				return err
			}
		}
	}

	return c.foldOut(ctx, tagRab+1, rem, recv)
}

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
	return c.herr(c.alltoallvBruck(send, scounts, sdispls, recv, rcounts, rdispls))
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
	ctx := c.collCtx()

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
		if err := c.sendMsgOn(ctx, dst, tagBruck+round, bruckFrame(staging, mask)); err != nil {
			return err
		}
		m, err := c.recvMsgOn(ctx, src, tagBruck+round)
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
