package monitoring

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"mpimon/internal/pml"
	"mpimon/internal/sparsemat"
)

// checkFlags validates a flags argument: it must select at least one
// communication class and carry no bits outside AllComm (the C-style API
// contract rejects unknown bits rather than ignoring them).
func checkFlags(flags Flags) ([]pml.Class, error) {
	if flags&^AllComm != 0 {
		return nil, ErrInvalidFlags
	}
	cls := flags.classes()
	if len(cls) == 0 {
		return nil, ErrInvalidFlags
	}
	return cls, nil
}

// Data returns the calling process's accumulated per-destination message
// counts and byte counts over the selected classes, indexed by rank of the
// session's communicator (MPI_M_get_data). The session must be Suspended.
// Per the paper, the call is collective even though the result is local;
// here it performs no communication, so mismatched calls cannot deadlock.
func (s *Session) Data(flags Flags) (counts, bytes []uint64, err error) {
	cls, err := checkFlags(flags)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case Freed:
		return nil, nil, ErrInvalidMsid
	case Active:
		return nil, nil, ErrSessionNotSuspended
	}
	n := s.n
	counts = make([]uint64, n)
	bytes = make([]uint64, n)
	for _, cl := range cls {
		for ci, p := range s.acc[cl] {
			counts[ci] += p.cnt
			bytes[ci] += p.byt
		}
	}
	return counts, bytes, nil
}

// SparseData is Data in O(nnz): the accumulated per-destination data over
// the selected classes as one sparse row sorted by destination comm rank,
// without materializing world-sized arrays. The session must be Suspended.
func (s *Session) SparseData(flags Flags) (sparsemat.Row, error) {
	cls, err := checkFlags(flags)
	if err != nil {
		return sparsemat.Row{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case Freed:
		return sparsemat.Row{}, ErrInvalidMsid
	case Active:
		return sparsemat.Row{}, ErrSessionNotSuspended
	}
	return s.sparseRowLocked(cls), nil
}

// sparseRowLocked assembles the accumulated data of the given classes as
// one destination-sorted sparse row; its three slices are all it allocates.
// Callers hold s.mu.
func (s *Session) sparseRowLocked(cls []pml.Class) sparsemat.Row {
	nnz := 0
	for _, cl := range cls {
		nnz += len(s.acc[cl])
	}
	dst := make([]int32, 0, nnz)
	for _, cl := range cls {
		for ci := range s.acc[cl] {
			dst = append(dst, ci)
		}
	}
	slices.Sort(dst)
	row := sparsemat.Row{Dst: slices.Compact(dst)} // a peer of several classes appears once
	row.Cnt = make([]uint64, len(row.Dst))
	row.Byt = make([]uint64, len(row.Dst))
	for i, ci := range row.Dst {
		for _, cl := range cls {
			p := s.acc[cl][ci]
			row.Cnt[i] += p.cnt
			row.Byt[i] += p.byt
		}
	}
	return row
}

// AllgatherSparse gathers every member's sparse row into a sparse n-by-n
// communication matrix delivered to every member. The wire format is the
// varint/delta row encoding of package sparsemat, so the gather moves and
// stores O(nnz) data instead of O(n²). Collective over the session's
// communicator; the gather traffic itself is excluded from monitoring.
func (s *Session) AllgatherSparse(flags Flags) (*sparsemat.Matrix, error) {
	row, err := s.SparseData(flags)
	if err != nil {
		return nil, err
	}
	c := s.comm
	n := c.Size()
	mon := c.Proc().Monitor()
	mon.Suppress()
	defer mon.Unsuppress()

	enc := sparsemat.AppendRow(nil, row)
	// Learn every member's encoded row length, then exchange the rows.
	lens := make([]byte, 4*n)
	var lenBuf [4]byte
	putUint32(lenBuf[:], uint32(len(enc)))
	if err := c.Allgather(lenBuf[:], lens); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
	}
	counts := make([]int, n)
	displs := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		counts[i] = int(getUint32(lens[4*i:]))
		displs[i] = total
		total += counts[i]
	}
	all := make([]byte, total)
	if err := c.Allgatherv(enc, all, counts, displs); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
	}
	sm := sparsemat.New(n)
	for i := 0; i < n; i++ {
		r, used, err := sparsemat.DecodeRow(all[displs[i]:displs[i]+counts[i]], n)
		if err != nil {
			return nil, fmt.Errorf("%w: decoding row of rank %d: %w", ErrInternalFail, i, err)
		}
		if used != counts[i] {
			return nil, fmt.Errorf("%w: row of rank %d used %d of %d wire bytes", ErrInternalFail, i, used, counts[i])
		}
		sm.Rows[i] = r
	}
	s.env.observeGather("allgather", total, sm.NNZ())
	return sm, nil
}

// RootgatherSparse is AllgatherSparse delivering the sparse matrix to root
// only; other ranks receive nil. The gather is streamed: root decodes one
// member's row at a time from a reused buffer, so its transient memory is
// bounded by the largest encoded row — not by n² and not even by the
// concatenated rows. Collective.
func (s *Session) RootgatherSparse(root int, flags Flags) (*sparsemat.Matrix, error) {
	row, err := s.SparseData(flags)
	if err != nil {
		return nil, err
	}
	c := s.comm
	n := c.Size()
	if root < 0 || root >= n {
		return nil, ErrInvalidRoot
	}
	mon := c.Proc().Monitor()
	mon.Suppress()
	defer mon.Unsuppress()

	enc := sparsemat.AppendRow(nil, row)
	if c.Rank() != root {
		if err := c.GatherStream(enc, root, nil); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
		return nil, nil
	}
	sm := sparsemat.New(n)
	wire, peak := 0, 0
	err = c.GatherStream(enc, root, func(src int, block []byte) error {
		r, used, err := sparsemat.DecodeRow(block, n)
		if err != nil {
			return fmt.Errorf("decoding row of rank %d: %w", src, err)
		}
		if used != len(block) {
			return fmt.Errorf("row of rank %d used %d of %d wire bytes", src, used, len(block))
		}
		sm.Rows[src] = r
		wire += len(block)
		if len(block) > peak {
			peak = len(block)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
	}
	s.env.observeGather("rootgather", wire, sm.NNZ())
	s.env.observeRootPeak(peak)
	return sm, nil
}

// AllgatherData gathers every member's rows into full n-by-n matrices
// (row-major: entry [i*n+j] is what rank i sent to rank j), delivered to
// every member (MPI_M_allgather_data). The gather travels in the sparse
// wire format and is densified on arrival, so the payload is O(nnz) while
// the result stays bit-identical to the historical dense gather.
// Collective over the session's communicator; the gather traffic itself is
// excluded from monitoring. For large worlds prefer AllgatherSparse, which
// skips the O(n²) densification.
func (s *Session) AllgatherData(flags Flags) (matCounts, matBytes []uint64, err error) {
	sm, err := s.AllgatherSparse(flags)
	if err != nil {
		return nil, nil, err
	}
	matCounts, matBytes = sm.Dense()
	return matCounts, matBytes, nil
}

// RootgatherData is AllgatherData delivering the matrices to root only
// (MPI_M_rootgather_data); other ranks receive nil matrices. Collective.
// Root assembles the dense matrices from the streamed sparse gather; for
// large worlds prefer RootgatherSparse.
func (s *Session) RootgatherData(root int, flags Flags) (matCounts, matBytes []uint64, err error) {
	sm, err := s.RootgatherSparse(root, flags)
	if err != nil {
		return nil, nil, err
	}
	if sm == nil {
		return nil, nil, nil
	}
	matCounts, matBytes = sm.Dense()
	return matCounts, matBytes, nil
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Flush writes the calling process's data to filename.[rank].prof, where
// [rank] is the rank in the session's communicator (MPI_M_flush). The path
// must exist. Collective in the sense that every member writes its file.
func (s *Session) Flush(filename string, flags Flags) error {
	counts, bytes, err := s.Data(flags)
	if err != nil {
		return err
	}
	rank := s.comm.Rank()
	name := fmt.Sprintf("%s.%d.prof", filename, rank)
	return writeProf(name, func(w *bufio.Writer) error {
		if _, err := fmt.Fprintf(w, "# mpimon monitoring session %d rank %d size %d flags %s\n",
			s.id, rank, s.n, flagNames(flags)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# dst\tcount\tbytes\n"); err != nil {
			return err
		}
		for j := range counts {
			if _, err := fmt.Fprintf(w, "%d\t%d\t%d\n", j, counts[j], bytes[j]); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeProf creates name, runs body over a buffered writer, and closes the
// file exactly once on every path. Any failure — create, write, flush or
// close — is reported as ErrInternalFail wrapping the underlying error, so
// ClassOf and errors.Is see the real cause.
func writeProf(name string, body func(*bufio.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInternalFail, err)
	}
	w := bufio.NewWriter(f)
	werr := body(w)
	if ferr := w.Flush(); werr == nil {
		werr = ferr
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%w: %w", ErrInternalFail, werr)
	}
	return nil
}

// RootFlush gathers the full matrices at root and writes them to
// filename_counts.[rank].prof and filename_sizes.[rank].prof, where [rank]
// is root's rank in COMM_WORLD, as the paper specifies (MPI_M_rootflush).
// Collective over the session's communicator.
func (s *Session) RootFlush(root int, filename string, flags Flags) error {
	matCounts, matBytes, err := s.RootgatherData(root, flags)
	if err != nil {
		return err
	}
	if s.comm.Rank() != root {
		return nil
	}
	worldRank := s.comm.WorldRank(root)
	n := s.n
	write := func(name string, m []uint64) error {
		return writeProf(name, func(w *bufio.Writer) error {
			if _, err := fmt.Fprintf(w, "# mpimon monitoring session %d matrix %dx%d flags %s\n",
				s.id, n, n, flagNames(flags)); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if j > 0 {
						if _, err := fmt.Fprintf(w, " "); err != nil {
							return err
						}
					}
					if _, err := fmt.Fprintf(w, "%d", m[i*n+j]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := write(fmt.Sprintf("%s_counts.%d.prof", filename, worldRank), matCounts); err != nil {
		return err
	}
	return write(fmt.Sprintf("%s_sizes.%d.prof", filename, worldRank), matBytes)
}

func flagNames(f Flags) string {
	switch f {
	case AllComm:
		return "all"
	case P2POnly:
		return "p2p"
	case CollOnly:
		return "coll"
	case OscOnly:
		return "osc"
	}
	out := ""
	if f&P2POnly != 0 {
		out += "p2p|"
	}
	if f&CollOnly != 0 {
		out += "coll|"
	}
	if f&OscOnly != 0 {
		out += "osc|"
	}
	if out == "" {
		return "none"
	}
	return out[:len(out)-1]
}

// sparseRowJSON is one nonzero row of the sparse JSON document.
type sparseRowJSON struct {
	Src    int      `json:"src"`
	Dst    []int32  `json:"dst"`
	Counts []uint64 `json:"counts"`
	Bytes  []uint64 `json:"bytes"`
}

// matrixJSON is the stable wire format of WriteJSON. Exactly one of the
// dense pair (Counts, Bytes) or the sparse Rows list is present: dense
// documents carry the full row-major matrices, sparse documents one entry
// per nonzero row with parallel dst/counts/bytes arrays.
type matrixJSON struct {
	Session int             `json:"session"`
	Size    int             `json:"size"`
	Flags   string          `json:"flags"`
	Counts  []uint64        `json:"counts,omitempty"`
	Bytes   []uint64        `json:"bytes,omitempty"`
	Rows    []sparseRowJSON `json:"rows,omitempty"`
	Sparse  bool            `json:"sparse,omitempty"`
}

// denseJSONCheaper decides the dense/sparse crossover of WriteJSON: a
// dense document stores 2n² numbers, a sparse one roughly 3 per nonzero
// entry — dense wins only while 3·nnz ≥ n² (see docs/PERFORMANCE.md).
func denseJSONCheaper(n, nnz int) bool {
	return 3*nnz >= n*n
}

// WriteJSON gathers the matrix at root 0 and writes it as one JSON
// document — a machine-readable alternative to RootFlush for external
// tooling. Small or dense matrices are written densely ({"counts",
// "bytes"} row-major, the historical format); past the dense/sparse
// crossover the document carries one {"src","dst","counts","bytes"} entry
// per nonzero row instead, so the file size follows nnz, not n².
// ReadMatrixJSON accepts both. Collective; non-root ranks write nothing.
func (s *Session) WriteJSON(w io.Writer, flags Flags) error {
	sm, err := s.RootgatherSparse(0, flags)
	if err != nil {
		return err
	}
	if s.comm.Rank() != 0 {
		return nil
	}
	n := s.n
	doc := matrixJSON{
		Session: int(s.id),
		Size:    n,
		Flags:   flagNames(flags),
	}
	if denseJSONCheaper(n, sm.NNZ()) {
		doc.Counts, doc.Bytes = sm.Dense()
	} else {
		doc.Sparse = true
		for i := range sm.Rows {
			r := sm.Rows[i]
			if len(r.Dst) == 0 {
				continue
			}
			doc.Rows = append(doc.Rows, sparseRowJSON{Src: i, Dst: r.Dst, Counts: r.Cnt, Bytes: r.Byt})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadMatrixJSON parses a document written by WriteJSON — dense or sparse
// — returning the dense counts and bytes matrices and their dimension.
func ReadMatrixJSON(r io.Reader) (counts, bytes []uint64, n int, err error) {
	var doc matrixJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, 0, err
	}
	n = doc.Size
	if n < 0 || n > 0 && n > math.MaxInt/n {
		return nil, nil, 0, fmt.Errorf("monitoring: matrix document of impossible size %d", n)
	}
	if doc.Sparse || (doc.Counts == nil && doc.Bytes == nil && doc.Rows != nil) {
		counts = make([]uint64, n*n)
		bytes = make([]uint64, n*n)
		for _, row := range doc.Rows {
			if row.Src < 0 || row.Src >= n {
				return nil, nil, 0, fmt.Errorf("monitoring: sparse row source %d outside %d ranks", row.Src, n)
			}
			if len(row.Counts) != len(row.Dst) || len(row.Bytes) != len(row.Dst) {
				return nil, nil, 0, fmt.Errorf("monitoring: malformed sparse row of rank %d", row.Src)
			}
			for k, d := range row.Dst {
				if d < 0 || int(d) >= n {
					return nil, nil, 0, fmt.Errorf("monitoring: sparse destination %d outside %d ranks", d, n)
				}
				counts[row.Src*n+int(d)] = row.Counts[k]
				bytes[row.Src*n+int(d)] = row.Bytes[k]
			}
		}
		return counts, bytes, n, nil
	}
	if len(doc.Counts) != n*n || len(doc.Bytes) != n*n {
		return nil, nil, 0, fmt.Errorf("monitoring: malformed matrix document (%d entries for size %d)", len(doc.Counts), doc.Size)
	}
	return doc.Counts, doc.Bytes, n, nil
}
