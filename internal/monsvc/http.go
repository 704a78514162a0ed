package monsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mpimon/internal/matstat"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
)

// maxFrameBytes bounds one ingest request body (16 MiB holds several
// million row entries — far beyond one epoch of any simulated world).
const maxFrameBytes = 16 << 20

// contentTypeRows is the ingest frame media type.
const contentTypeRows = "application/x-mpimon-rows"

// contentTypeProm is the Prometheus text exposition content type.
const contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs              register a job            {"name","np"} -> {"id","token",...}
//	GET    /v1/jobs              list jobs (no tokens)
//	POST   /v1/jobs/{id}/rows    ingest one row frame      (bearer token, binary body)
//	DELETE /v1/jobs/{id}         remove a job              (bearer token)
//	GET    /v1/jobs/{id}/matrix  matrix JSON               ?epoch=latest|cumulative|N  ?format=auto|dense|sparse
//	GET    /v1/jobs/{id}/heatmap SVG or TSV heat map       ?epoch=...  ?format=svg|tsv  ?bins=B
//	GET    /v1/jobs/{id}/summary matstat sparse statistics ?epoch=...
//	GET    /metrics              fleet Prometheus exposition (job label per job)
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleCreateJob))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.handleListJobs))
	mux.HandleFunc("POST /v1/jobs/{id}/rows", s.instrument("/v1/jobs/{id}/rows", s.handleRows))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleDeleteJob))
	mux.HandleFunc("GET /v1/jobs/{id}/matrix", s.instrument("/v1/jobs/{id}/matrix", s.handleMatrix))
	mux.HandleFunc("GET /v1/jobs/{id}/heatmap", s.instrument("/v1/jobs/{id}/heatmap", s.handleHeatmap))
	mux.HandleFunc("GET /v1/jobs/{id}/summary", s.instrument("/v1/jobs/{id}/summary", s.handleSummary))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	}))
	return mux
}

// statusWriter captures the status code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument counts requests per route pattern and status code.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	s.reg.SetHelp("monsvc_http_requests_total", "HTTP requests served, by route pattern and status code.")
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.reg.Counter("monsvc_http_requests_total",
			telemetry.L("route", route), telemetry.L("code", strconv.Itoa(sw.code))).Inc()
	}
}

// httpError maps a service error to its status code and writes a JSON
// error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNoSuchJob), errors.Is(err, ErrNoSuchEpoch):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadToken):
		code = http.StatusUnauthorized
	case errors.Is(err, ErrEpochEvicted):
		code = http.StatusGone
	case errors.Is(err, ErrBadFrame), errors.Is(err, ErrWorldSize), errors.Is(err, ErrBadSelector):
		code = http.StatusBadRequest
	case errors.Is(err, ErrTooManyJobs):
		code = http.StatusTooManyRequests
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// bearerToken extracts the job token: "Authorization: Bearer x" or the
// X-Mpimon-Token header.
func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		return strings.TrimPrefix(h, "Bearer ")
	}
	return r.Header.Get("X-Mpimon-Token")
}

// createJobRequest is the POST /v1/jobs body.
type createJobRequest struct {
	Name string `json:"name"`
	NP   int    `json:"np"`
}

func (s *Service) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req createJobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, fmt.Errorf("%w: body: %w", ErrWorldSize, err))
		return
	}
	info, err := s.CreateJob(req.Name, req.NP)
	if err != nil {
		httpError(w, err)
		return
	}
	info.Retention = s.cfg.RetentionEpochs
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("id"), bearerToken(r)); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Service) handleRows(w http.ResponseWriter, r *http.Request) {
	frame, err := io.ReadAll(io.LimitReader(r.Body, maxFrameBytes+1))
	if err != nil {
		httpError(w, fmt.Errorf("%w: reading body: %w", ErrBadFrame, err))
		return
	}
	if len(frame) > maxFrameBytes {
		httpError(w, fmt.Errorf("%w: frame exceeds %d bytes", ErrBadFrame, maxFrameBytes))
		return
	}
	res, err := s.Ingest(r.PathValue("id"), bearerToken(r), frame)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// matrixDoc is the GET /matrix document: the job, name, epoch and nnz
// around the matrix body sparsemat encodes and decodes, the same body as
// the library's WriteJSON.
type matrixDoc struct {
	Job   string `json:"job"`
	Name  string `json:"name,omitempty"`
	Epoch string `json:"epoch"`
	NNZ   int    `json:"nnz"`
	sparsemat.JSONBody
}

// epochLabel names the epoch a view resolved to.
func epochLabel(v *MatrixView) string {
	if v.Selector == SelCumulative {
		return SelCumulative
	}
	return strconv.FormatUint(v.Epoch, 10)
}

func (s *Service) handleMatrix(w http.ResponseWriter, r *http.Request) {
	v, err := s.View(r.PathValue("id"), r.URL.Query().Get("epoch"))
	if err != nil {
		httpError(w, err)
		return
	}
	body, err := sparsemat.NewJSONBody(v.Matrix(), r.URL.Query().Get("format"))
	if err != nil {
		httpError(w, fmt.Errorf("%w: %w", ErrBadSelector, err))
		return
	}
	writeJSON(w, http.StatusOK, matrixDoc{Job: v.JobID, Name: v.Name, Epoch: epochLabel(v), NNZ: v.NNZ, JSONBody: body})
}

// summaryDoc is the GET /summary payload: the matstat sparse statistics
// of the selected matrix.
type summaryDoc struct {
	Job          string         `json:"job"`
	Name         string         `json:"name,omitempty"`
	Epoch        string         `json:"epoch"`
	Size         int            `json:"size"`
	NNZ          int            `json:"nnz"`
	TotalBytes   uint64         `json:"total_bytes"`
	NonzeroPairs int            `json:"nonzero_pairs"`
	AvgDegree    float64        `json:"avg_degree"`
	Imbalance    float64        `json:"imbalance"`
	TopPairs     []matstat.Pair `json:"top_pairs"`
}

func (s *Service) handleSummary(w http.ResponseWriter, r *http.Request) {
	v, err := s.View(r.PathValue("id"), r.URL.Query().Get("epoch"))
	if err != nil {
		httpError(w, err)
		return
	}
	sm := v.Matrix()
	sum, err := matstat.Summarize(sm)
	if err != nil {
		httpError(w, err)
		return
	}
	pairs, err := matstat.TopPairs(sm, 10)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, summaryDoc{
		Job:          v.JobID,
		Name:         v.Name,
		Epoch:        epochLabel(v),
		Size:         v.N,
		NNZ:          v.NNZ,
		TotalBytes:   sum.Total,
		NonzeroPairs: sum.NonzeroPairs,
		AvgDegree:    sum.AvgDegree,
		Imbalance:    sum.Imbalance(),
		TopPairs:     pairs,
	})
}

func (s *Service) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	v, err := s.View(r.PathValue("id"), r.URL.Query().Get("epoch"))
	if err != nil {
		httpError(w, err)
		return
	}
	q := r.URL.Query()
	bins := defaultHeatmapBins
	if b := q.Get("bins"); b != "" {
		bins, err = strconv.Atoi(b)
		if err != nil || bins < 1 || bins > maxHeatmapBins {
			httpError(w, fmt.Errorf("%w: bins %q (want 1..%d)", ErrBadSelector, b, maxHeatmapBins))
			return
		}
	}
	switch q.Get("format") {
	case "", "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		writeHeatmapSVG(w, v, bins)
	case "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		writeHeatmapTSV(w, v)
	default:
		httpError(w, fmt.Errorf("%w: format %q (want svg or tsv)", ErrBadSelector, q.Get("format")))
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", contentTypeProm)
	if err := telemetry.WritePrometheusMulti(w, s.labeledRegistries()...); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// rowsFromMatrix converts a sparse matrix into the frame row list — the
// client-side helper mirrored here for tests and tools.
func rowsFromMatrix(m *sparsemat.Matrix) []RankRow {
	var rows []RankRow
	for i := range m.Rows {
		if m.Rows[i].NNZ() > 0 {
			rows = append(rows, RankRow{Rank: int32(i), Row: m.Rows[i]})
		}
	}
	return rows
}
