package telemetry

import "encoding/binary"

// record is a span as its rank keeps it while it is open or staged: 56
// bytes, no pointers, the rank implicit. int32 holds every world rank and
// context id a world hands out.
type record struct {
	id, parent        uint64
	start, end, bytes int64
	src, dst, ctx     int32
	name              uint16
	kind              Kind
}

// chunkBytes is the size of a log chunk: a noscan allocator size class,
// never copied or regrown, holding encoded records.
const chunkBytes = 16 << 10

// A record is logged as nine varints against the record before it in its
// rank's log (the zero record for the first): the id, parent and start as
// zigzag deltas from that record's; end−start, bytes, src, dst−src and ctx
// zigzagged; then name<<3 | kind, where a kind of kindEscape or more
// stores kindEscape and follows with the kind's byte. Every field wraps
// exactly, so any record sequence decodes to itself.
const kindEscape = 7

// maxRecordLen bounds an encoded record: five 64-bit varints, three of at
// most 33 bits, the 19-bit name and kind, and the escaped kind byte.
const maxRecordLen = 5*binary.MaxVarintLen64 + 3*5 + 3 + 1

// putNext writes s at w[i:], encoded against prev, the record logged
// before it, and returns the index after it. w must have maxRecordLen
// bytes from i.
func (s *record) putNext(w []byte, i int, prev *record) int {
	i = putUvarint(w, i, zigzag(int64(s.id-prev.id)))
	i = putUvarint(w, i, zigzag(int64(s.parent-prev.parent)))
	i = putUvarint(w, i, zigzag(s.start-prev.start))
	i = putUvarint(w, i, zigzag(s.end-s.start))
	i = putUvarint(w, i, zigzag(s.bytes))
	i = putUvarint(w, i, zigzag(int64(s.src)))
	i = putUvarint(w, i, zigzag(int64(s.dst)-int64(s.src)))
	i = putUvarint(w, i, zigzag(int64(s.ctx)))
	if s.kind < kindEscape {
		return putUvarint(w, i, uint64(s.name)<<3|uint64(s.kind))
	}
	i = putUvarint(w, i, uint64(s.name)<<3|kindEscape)
	w[i] = byte(s.kind)
	return i + 1
}

// putUvarint writes v as a varint at w[i:] and returns the index after it.
func putUvarint(w []byte, i int, v uint64) int {
	for v >= 0x80 {
		w[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	w[i] = byte(v)
	return i + 1
}

// decodeNext replaces s, the record logged before the one at the front of
// b, with that record, and returns the bytes it took.
func (s *record) decodeNext(b []byte) int {
	d := decoder{b: b}
	s.id += uint64(d.int())
	s.parent += uint64(d.int())
	s.start += d.int()
	s.end = s.start + d.int()
	s.bytes = d.int()
	src := d.int()
	s.src, s.dst, s.ctx = int32(src), int32(src+d.int()), int32(d.int())
	v := d.uvarint()
	s.name, s.kind = uint16(v>>3), Kind(v&7)
	if s.kind == kindEscape {
		s.kind = Kind(b[d.i])
		d.i++
	}
	return d.i
}

// decoder reads the varints of one encoded record.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.i:])
	d.i += n
	return v
}

func (d *decoder) int() int64 { return unzigzag(d.uvarint()) }

// zigzag maps small magnitudes of either sign to small unsigned values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
