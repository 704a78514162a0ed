package monsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"mpimon/internal/sparsemat"
)

// Client talks to a monitoring service over HTTP. One client serves one
// job; its methods are safe for concurrent use by many ranks once the
// job is created (CreateJob itself must happen-before the pushes).
type Client struct {
	BaseURL string
	HTTP    *http.Client

	JobID string
	Token string
}

// NewClient builds a client for the daemon at baseURL (no trailing
// slash needed) using http.DefaultClient.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// StatusError is a non-2xx server response, carrying the HTTP status so
// callers can distinguish 404 (unknown) from 410 (evicted) and friends.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("monsvc: server: %s (HTTP %d)", e.Message, e.Code)
}

// decodeError surfaces the server's JSON error body as a *StatusError.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	var doc struct {
		Error string `json:"error"`
	}
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		msg = doc.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

// CreateJob registers a job of n ranks and stores the returned id and
// token on the client.
func (c *Client) CreateJob(name string, n int) error {
	body, err := json.Marshal(createJobRequest{Name: name, NP: n})
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("monsvc: creating job: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return decodeError(resp)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("monsvc: decoding job info: %w", err)
	}
	c.JobID, c.Token = info.ID, info.Token
	return nil
}

// PushRows streams one epoch-tagged frame of rank rows to the job.
func (c *Client) PushRows(epoch uint64, rows []RankRow) (IngestResult, error) {
	frame := AppendFrame(nil, epoch, rows)
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/jobs/%s/rows", c.BaseURL, c.JobID), bytes.NewReader(frame))
	if err != nil {
		return IngestResult{}, err
	}
	req.Header.Set("Content-Type", contentTypeRows)
	req.Header.Set("Authorization", "Bearer "+c.Token)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return IngestResult{}, fmt.Errorf("monsvc: pushing rows: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return IngestResult{}, decodeError(resp)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return IngestResult{}, fmt.Errorf("monsvc: decoding ingest result: %w", err)
	}
	return res, nil
}

// PushRow streams a single rank's row — the per-rank exporter path.
func (c *Client) PushRow(epoch uint64, rank int, row sparsemat.Row) error {
	_, err := c.PushRows(epoch, []RankRow{{Rank: int32(rank), Row: row}})
	return err
}

// ExportRow matches monitoring.RowExporter: wire it into a session with
// Session.SetRowExporter(client.ExportRow) and every Suspend streams the
// suspending rank's sparse row to the daemon.
func (c *Client) ExportRow(epoch uint64, rank, n int, row sparsemat.Row) error {
	return c.PushRow(epoch, rank, row)
}

// ExportRowBatch matches monitoring.RowBatchSink: one epoch's coalesced
// rows travel as a single ingest frame in a single request, so a
// batching exporter shared by a world turns per-(rank, epoch) pushes
// into per-epoch ones. The call is atomic with respect to the daemon — a
// failed request ingests nothing — which is what makes a retry of the
// same batch exact.
func (c *Client) ExportRowBatch(epoch uint64, n int, ranks []int, rows []sparsemat.Row) error {
	rr := make([]RankRow, len(ranks))
	for i, r := range ranks {
		rr[i] = RankRow{Rank: int32(r), Row: rows[i]}
	}
	_, err := c.PushRows(epoch, rr)
	return err
}

// Matrix fetches the job's matrix for an epoch selector ("", "latest",
// "cumulative" or a decimal epoch) and returns it as a sparse matrix,
// whichever representation the server chose on the wire.
func (c *Client) Matrix(selector string) (*sparsemat.Matrix, error) {
	url := fmt.Sprintf("%s/v1/jobs/%s/matrix", c.BaseURL, c.JobID)
	if selector != "" {
		url += "?epoch=" + selector
	}
	resp, err := c.HTTP.Get(url)
	if err != nil {
		return nil, fmt.Errorf("monsvc: fetching matrix: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var doc matrixDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("monsvc: decoding matrix: %w", err)
	}
	return doc.Matrix()
}
