package sparsemat

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestRowRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Dst: []int32{3}, Cnt: []uint64{1}, Byt: []uint64{1000}},
		{Dst: []int32{0, 1, 2, 4094, 4095}, Cnt: []uint64{1, 2, 3, 4, 5}, Byt: []uint64{10, 0, 1 << 40, 7, 9}},
	}
	for _, want := range rows {
		if err := want.Validate(4096); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		buf := AppendRow(nil, want)
		if len(buf) != EncodedSize(want) {
			t.Errorf("EncodedSize = %d, encoded %d bytes", EncodedSize(want), len(buf))
		}
		got, used, err := DecodeRow(buf, 4096)
		if err != nil {
			t.Fatalf("DecodeRow: %v", err)
		}
		if used != len(buf) {
			t.Errorf("DecodeRow consumed %d of %d bytes", used, len(buf))
		}
		if got.NNZ() != want.NNZ() {
			t.Fatalf("nnz = %d, want %d", got.NNZ(), want.NNZ())
		}
		for i := range want.Dst {
			if got.Dst[i] != want.Dst[i] || got.Cnt[i] != want.Cnt[i] || got.Byt[i] != want.Byt[i] {
				t.Fatalf("entry %d = (%d,%d,%d), want (%d,%d,%d)", i,
					got.Dst[i], got.Cnt[i], got.Byt[i], want.Dst[i], want.Cnt[i], want.Byt[i])
			}
		}
	}
}

func TestRowEncodingIsCompactForStencilRows(t *testing.T) {
	// A 4-neighbour stencil row at np=4096 with small counts must encode
	// far below the 16·n dense row (65536 bytes).
	r := Row{Dst: []int32{63, 2047, 2049, 4032}, Cnt: []uint64{12, 12, 12, 12}, Byt: []uint64{8192, 8192, 8192, 8192}}
	if s := EncodedSize(r); s > 64 {
		t.Errorf("stencil row encodes to %d bytes, want <= 64", s)
	}
}

func TestDecodeRowRejectsMalformed(t *testing.T) {
	good := AppendRow(nil, Row{Dst: []int32{1, 5}, Cnt: []uint64{1, 2}, Byt: []uint64{3, 4}})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeRow(good[:cut], 8); err == nil {
			t.Fatalf("DecodeRow accepted a row truncated to %d bytes", cut)
		}
	}
	if _, _, err := DecodeRow(good, 4); err == nil {
		t.Error("DecodeRow accepted destination 5 in a world of 4")
	}
	// A zero gap after the first entry means duplicate destinations.
	bad := []byte{2, 3, 1, 1, 0, 1, 1}
	if _, _, err := DecodeRow(bad, 8); err == nil {
		t.Error("DecodeRow accepted a zero destination gap")
	}
}

// FuzzDecodeRow: a row DecodeRow accepts keeps the row invariant
// (Validate(n)), and AppendRow re-encodes it to exactly the bytes it
// consumed. The checked-in corpus holds two gap encodings that wrapped to
// out-of-order destinations (one to -1) and a valid multi-entry row.
func FuzzDecodeRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		r, used, err := DecodeRow(b, n)
		if err != nil {
			return
		}
		if err := r.Validate(n); err != nil {
			t.Fatalf("DecodeRow(%x, %d) accepted an invalid row %v: %v", b, n, r, err)
		}
		if enc := AppendRow(nil, r); !bytes.Equal(enc, b[:used]) {
			t.Fatalf("DecodeRow(%x, %d) consumed %x, AppendRow writes %x", b, n, b[:used], enc)
		}
	})
}

func TestValidateRejectsUnsortedAndMisaligned(t *testing.T) {
	if err := (Row{Dst: []int32{2, 1}, Cnt: []uint64{1, 1}, Byt: []uint64{1, 1}}).Validate(4); err == nil {
		t.Error("Validate accepted descending destinations")
	}
	if err := (Row{Dst: []int32{1, 1}, Cnt: []uint64{1, 1}, Byt: []uint64{1, 1}}).Validate(4); err == nil {
		t.Error("Validate accepted a duplicate destination")
	}
	if err := (Row{Dst: []int32{1}, Cnt: []uint64{1, 2}, Byt: []uint64{1}}).Validate(4); err == nil {
		t.Error("Validate accepted misaligned slices")
	}
}

func TestMatrixDenseRoundTrip(t *testing.T) {
	const n = 17
	rng := rand.New(rand.NewSource(7))
	counts := make([]uint64, n*n)
	bytes := make([]uint64, n*n)
	for k := 0; k < 60; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		counts[i*n+j] += uint64(rng.Intn(5))
		bytes[i*n+j] += uint64(rng.Intn(1 << 20))
	}
	sm, err := FromDense(counts, bytes, n)
	if err != nil {
		t.Fatal(err)
	}
	gc, gb := sm.Dense()
	if !reflect.DeepEqual(gc, counts) || !reflect.DeepEqual(gb, bytes) {
		t.Fatal("FromDense -> Dense is not the identity")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c, b := sm.At(i, j)
			if c != counts[i*n+j] || b != bytes[i*n+j] {
				t.Fatalf("At(%d,%d) = (%d,%d), want (%d,%d)", i, j, c, b, counts[i*n+j], bytes[i*n+j])
			}
		}
	}
	if sm.WireBytes() <= 0 {
		t.Error("WireBytes = 0 for a nonzero matrix")
	}
}

func TestHasDistinguishesZeroByteEntries(t *testing.T) {
	// Entry (0,1) has a count but zero bytes: present, so Has must say so
	// even though At reports zero — this is what lets a sparse consumer
	// visit each unordered pair exactly once.
	counts := []uint64{0, 3, 0, 0, 0, 0, 0, 0, 0}
	bytes := make([]uint64, 9)
	sm, err := FromDense(counts, bytes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sm.Has(0, 1) {
		t.Fatal("Has(0,1) = false for a count-only entry")
	}
	if sm.Has(1, 0) || sm.Has(0, 2) || sm.Has(2, 2) {
		t.Fatal("Has reports absent entries as present")
	}
	if sm.Has(-1, 0) || sm.Has(0, 3) || sm.Has(3, 0) {
		t.Fatal("Has reports out-of-range coordinates as present")
	}
}
