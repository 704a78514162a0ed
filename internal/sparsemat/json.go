package sparsemat

import "fmt"

// JSONBody is the matrix body of the JSON matrix documents: the file
// monitoring's Session.WriteJSON writes and the monitoring daemon's
// GET /matrix reply. Each document embeds it beside its own fields. A
// dense body carries the row-major n-by-n Counts and Bytes; a sparse one
// (Sparse set) carries one JSONRow per nonzero row instead, so its size
// follows nnz, not n². NewJSONBody is the one encoder and Matrix the one
// decoder.
type JSONBody struct {
	Size   int       `json:"size"`
	Counts []uint64  `json:"counts,omitempty"`
	Bytes  []uint64  `json:"bytes,omitempty"`
	Rows   []JSONRow `json:"rows,omitempty"`
	Sparse bool      `json:"sparse,omitempty"`
}

// JSONRow is one nonzero row of a sparse JSONBody: source rank Src and its
// entries as parallel arrays, destinations strictly ascending.
type JSONRow struct {
	Src    int32    `json:"src"`
	Dst    []int32  `json:"dst"`
	Counts []uint64 `json:"counts"`
	Bytes  []uint64 `json:"bytes"`
}

// NewJSONBody encodes m in format "dense", "sparse" or "auto" (or ""). Auto
// is the dense/sparse crossover: a dense body stores 2n² numbers and a
// sparse one roughly 3 per entry, so dense is written only while
// 3·nnz ≥ n² (see docs/PERFORMANCE.md). The body shares m's row slices.
func NewJSONBody(m *Matrix, format string) (JSONBody, error) {
	var dense bool
	switch format {
	case "", "auto":
		dense = 3*m.NNZ() >= m.N*m.N
	case "dense":
		dense = true
	case "sparse":
	default:
		return JSONBody{}, fmt.Errorf("sparsemat: format %q (want auto, dense or sparse)", format)
	}
	b := JSONBody{Size: m.N}
	if dense {
		b.Counts, b.Bytes = m.Dense()
		return b, nil
	}
	b.Sparse = true
	for i := range m.Rows {
		r := m.Rows[i]
		if len(r.Dst) > 0 {
			b.Rows = append(b.Rows, JSONRow{Src: int32(i), Dst: r.Dst, Counts: r.Cnt, Bytes: r.Byt})
		}
	}
	return b, nil
}

// Matrix decodes the body. A body with neither counts nor bytes is sparse.
// It checks what it reads: the size is a rank count of at most 2³¹; a
// dense body has n² counts and bytes; a sparse body's rows have strictly
// ascending sources in [0, n) and each passes Row.Validate. The matrix
// shares the body's row slices.
func (b *JSONBody) Matrix() (*Matrix, error) {
	if b.Size < 0 || int64(b.Size) > 1<<31 {
		return nil, fmt.Errorf("sparsemat: JSON matrix of impossible size %d", b.Size)
	}
	if !b.Sparse && (b.Counts != nil || b.Bytes != nil) {
		return FromDense(b.Counts, b.Bytes, b.Size)
	}
	m := New(b.Size)
	prev := int32(-1)
	for _, jr := range b.Rows {
		if jr.Src <= prev || int(jr.Src) >= b.Size {
			return nil, fmt.Errorf("sparsemat: JSON row source %d after %d in %d ranks", jr.Src, prev, b.Size)
		}
		prev = jr.Src
		r := Row{Dst: jr.Dst, Cnt: jr.Counts, Byt: jr.Bytes}
		if err := r.Validate(b.Size); err != nil {
			return nil, err
		}
		m.Rows[jr.Src] = r
	}
	return m, nil
}
