package monsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpimon/internal/sparsemat"
)

// startServer spins up a service with a handler and returns it with a
// client wired to a fresh job.
func startServer(t *testing.T, cfg Config, np int) (*Service, *httptest.Server, *Client) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.HTTP = srv.Client()
	if err := c.CreateJob("httptest", np); err != nil {
		t.Fatal(err)
	}
	return svc, srv, c
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHTTPJobLifecycle(t *testing.T) {
	svc, srv, c := startServer(t, Config{RetentionEpochs: 4}, 4)
	_ = svc
	if err := c.PushRow(0, 0, row([3]uint64{1, 2, 128}, [3]uint64{3, 1, 64})); err != nil {
		t.Fatal(err)
	}
	if err := c.PushRow(0, 3, row([3]uint64{0, 1, 32})); err != nil {
		t.Fatal(err)
	}

	// List (no tokens leaked).
	resp, body := get(t, srv, "/v1/jobs")
	if resp.StatusCode != http.StatusOK || strings.Contains(body, c.Token) {
		t.Fatalf("list jobs: %d, token leaked=%v", resp.StatusCode, strings.Contains(body, c.Token))
	}

	// Matrix roundtrip through the typed client.
	m, err := c.Matrix("latest")
	if err != nil {
		t.Fatal(err)
	}
	if cnt, byt := m.At(0, 1); cnt != 2 || byt != 128 {
		t.Fatalf("served matrix [0,1] = (%d,%d), want (2,128)", cnt, byt)
	}

	// Delete requires the token, then the job is gone.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+c.JobID, nil)
	req.Header.Set("Authorization", "Bearer "+c.Token)
	dresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, _ = get(t, srv, "/v1/jobs/"+c.JobID+"/matrix")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("matrix of deleted job: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	_, srv, c := startServer(t, Config{RetentionEpochs: 1}, 4)
	// 401: wrong token.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/"+c.JobID+"/rows",
		bytes.NewReader(AppendFrame(nil, 0, nil)))
	req.Header.Set("X-Mpimon-Token", "wrong")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", resp.StatusCode)
	}
	// 400: garbage frame.
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/"+c.JobID+"/rows", strings.NewReader("junk"))
	req.Header.Set("Authorization", "Bearer "+c.Token)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d, want 400", resp.StatusCode)
	}
	// 404: unknown job / no epochs yet; 410: evicted epoch.
	if resp, _ := get(t, srv, "/v1/jobs/zzz/matrix"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/v1/jobs/"+c.JobID+"/matrix"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no epochs yet: %d, want 404", resp.StatusCode)
	}
	for e := uint64(0); e < 2; e++ {
		if err := c.PushRow(e, 0, row([3]uint64{1, 1, 8})); err != nil {
			t.Fatal(err)
		}
	}
	resp, _ = get(t, srv, "/v1/jobs/"+c.JobID+"/matrix?epoch=0")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted epoch: %d, want 410", resp.StatusCode)
	}
	var se *StatusError
	if _, err := c.Matrix("0"); !errors.As(err, &se) || se.Code != http.StatusGone {
		t.Fatalf("client eviction error = %v, want StatusError 410", err)
	}
	// 400: bad selector / format.
	if resp, _ := get(t, srv, "/v1/jobs/"+c.JobID+"/matrix?epoch=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad selector: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/v1/jobs/"+c.JobID+"/matrix?format=yaml"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: %d, want 400", resp.StatusCode)
	}
	// 405: wrong method on a read endpoint.
	presp, err := srv.Client().Post(srv.URL+"/v1/jobs/"+c.JobID+"/matrix", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on matrix: %d, want 405", presp.StatusCode)
	}
}

// TestHTTPMatrixFormats pins the dense/sparse crossover and the explicit
// format overrides; both representations must decode to the same matrix.
func TestHTTPMatrixFormats(t *testing.T) {
	_, srv, c := startServer(t, Config{}, 4)
	// 1 nnz in a 4x4 world: 3*1 < 16, auto picks sparse.
	if err := c.PushRow(0, 2, row([3]uint64{1, 7, 700})); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sparse bool     `json:"sparse"`
		Counts []uint64 `json:"counts"`
	}
	_, body := get(t, srv, "/v1/jobs/"+c.JobID+"/matrix")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Sparse {
		t.Fatalf("auto format for 1/16 nnz should be sparse: %s", body)
	}
	_, body = get(t, srv, "/v1/jobs/"+c.JobID+"/matrix?format=dense")
	doc.Sparse, doc.Counts = false, nil // dense docs omit "sparse"
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Sparse || len(doc.Counts) != 16 || doc.Counts[2*4+1] != 7 {
		t.Fatalf("dense override wrong: %s", body)
	}
	// The typed client decodes both forms identically.
	for _, format := range []string{"dense", "sparse"} {
		resp, body := get(t, srv, "/v1/jobs/"+c.JobID+"/matrix?format="+format)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", format, resp.StatusCode)
		}
		var d matrixDoc
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatal(err)
		}
		m, err := d.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if cnt, byt := m.At(2, 1); cnt != 7 || byt != 700 {
			t.Fatalf("%s decode: [2,1] = (%d,%d)", format, cnt, byt)
		}
	}
}

func TestHTTPSummaryAndHeatmap(t *testing.T) {
	_, srv, c := startServer(t, Config{}, 6)
	if _, err := c.PushRows(0, []RankRow{
		{Rank: 0, Row: row([3]uint64{1, 4, 4096})},
		{Rank: 1, Row: row([3]uint64{0, 4, 4096}, [3]uint64{2, 1, 64})},
	}); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv, "/v1/jobs/"+c.JobID+"/summary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d: %s", resp.StatusCode, body)
	}
	var sum summaryDoc
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TotalBytes != 2*4096+64 || sum.NonzeroPairs != 3 || len(sum.TopPairs) == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.TopPairs[0].Bytes != 4096 {
		t.Fatalf("top pair = %+v, want the 4096 B pair", sum.TopPairs[0])
	}

	resp, body = get(t, srv, "/v1/jobs/"+c.JobID+"/heatmap")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "image/svg+xml" {
		t.Fatalf("heatmap svg: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(body, "<svg") || !strings.Contains(body, "</svg>") {
		t.Fatalf("not an svg: %.80s", body)
	}
	resp, body = get(t, srv, "/v1/jobs/"+c.JobID+"/heatmap?format=tsv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heatmap tsv: %d", resp.StatusCode)
	}
	if !strings.Contains(body, "src\tdst\tcount\tbytes") || !strings.Contains(body, "0\t1\t4\t4096") {
		t.Fatalf("tsv content wrong:\n%s", body)
	}
	if resp, _ := get(t, srv, "/v1/jobs/"+c.JobID+"/heatmap?bins=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bins=0: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/v1/jobs/"+c.JobID+"/heatmap?format=png"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=png: %d, want 400", resp.StatusCode)
	}
}

// TestHTTPMetrics pins the fleet exposition: correct content type, one
// header per family, per-job samples labeled job="..." and 405 on POST.
func TestHTTPMetrics(t *testing.T) {
	svc, srv, c := startServer(t, Config{}, 4)
	c2 := NewClient(srv.URL)
	c2.HTTP = srv.Client()
	if err := c2.CreateJob("second", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.PushRow(0, 0, row([3]uint64{1, 1, 10})); err != nil {
		t.Fatal(err)
	}
	if err := c2.PushRow(0, 1, row([3]uint64{2, 2, 20})); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"monsvc_jobs 2",
		`monsvc_job_rows_total{job="` + c.JobID + `",name="httptest"} 1`,
		`monsvc_job_rows_total{job="` + c2.JobID + `",name="second"} 1`,
		"# HELP monsvc_job_rows_total",
		`monsvc_http_requests_total{code="201",route="/v1/jobs"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE monsvc_job_rows_total counter"); n != 1 {
		t.Fatalf("# TYPE monsvc_job_rows_total appears %d times, want 1", n)
	}
	presp, err := srv.Client().Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", presp.StatusCode)
	}
	_ = svc
}

func TestHTTPHealthAndDraining(t *testing.T) {
	svc, srv, _ := startServer(t, Config{}, 4)
	if resp, body := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	svc.SetDraining(true)
	if resp, body := get(t, srv, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %q", resp.StatusCode, body)
	}
	// Liveness and ingest still work while draining.
	if resp, _ := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	svc.SetDraining(false)
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after drain cleared: %d", resp.StatusCode)
	}
}

func TestRowsFromMatrix(t *testing.T) {
	m := sparsemat.New(4)
	m.Rows[2] = row([3]uint64{0, 1, 5})
	rows := rowsFromMatrix(m)
	if len(rows) != 1 || rows[0].Rank != 2 {
		t.Fatalf("rowsFromMatrix = %+v", rows)
	}
}

// TestClientMatrixRejectsBadSize serves malformed /matrix documents and
// checks Client.Matrix returns an error for each instead of panicking: a
// negative size, sparse or dense (-2 squared passes the length check), and
// a size whose square overflows.
func TestClientMatrixRejectsBadSize(t *testing.T) {
	for _, doc := range []string{
		`{"size":-1,"sparse":true}`,
		`{"size":-2,"counts":[1,2,3,4],"bytes":[1,2,3,4]}`,
		`{"size":4294967296,"counts":[],"bytes":[]}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, doc)
		}))
		c := NewClient(srv.URL)
		c.JobID = "j"
		m, err := c.Matrix("")
		srv.Close()
		if err == nil {
			t.Fatalf("Matrix accepted %s as a %d-rank matrix", doc, m.N)
		}
	}
}
