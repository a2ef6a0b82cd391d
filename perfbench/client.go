package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client sends each request exactly once: no retries, so a shed 503 or a
// transport error is a failure, never a hidden resend.
type client struct {
	hc   *http.Client
	base string
}

// newClient opens one connection to the server: every workload is one
// closed-loop client.
func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole reply.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(path string, into any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// queryReq mirrors the /query body.
type queryReq struct {
	Query   string `json:"query"`
	Limit   int    `json:"limit,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
	Columns bool   `json:"columns,omitempty"`
}

// queryResp holds the /query reply fields the oracles check.
type queryResp struct {
	Cardinality  int       `json:"cardinality"`
	Scalar       *float64  `json:"scalar"`
	Tuples       [][]int64 `json:"tuples"`
	Columns      [][]int64 `json:"columns"`
	Anns         []float64 `json:"anns"`
	Truncated    bool      `json:"truncated"`
	PlanCached   bool      `json:"plan_cached"`
	ResultCached bool      `json:"result_cached"`
	TraceID      uint64    `json:"trace_id"`
}

// rows returns the reply's tuples whichever wire shape carried them.
func (q *queryResp) rows() [][]int64 {
	if q.Columns == nil {
		return q.Tuples
	}
	if len(q.Columns) == 0 {
		return nil
	}
	out := make([][]int64, len(q.Columns[0]))
	for i := range out {
		row := make([]int64, len(q.Columns))
		for c := range q.Columns {
			row[c] = q.Columns[c][i]
		}
		out[i] = row
	}
	return out
}

// updateReq mirrors the /update body; rows are dense vertex codes.
type updateReq struct {
	Name    string      `json:"name"`
	Inserts [][2]uint32 `json:"inserts,omitempty"`
	Deletes [][2]uint32 `json:"deletes,omitempty"`
}

type updateResp struct {
	Inserted    int    `json:"inserted"`
	Deleted     int    `json:"deleted"`
	OverlayRows int    `json:"overlay_rows"`
	TraceID     uint64 `json:"trace_id"`
}

// sample is one sent request and its outcome. The traced run replays
// the recorded stream from these.
type sample struct {
	kind  string // query kind ("tc", "nbr", …) or "update"
	path  string
	query *queryReq
	upd   *updateReq
	// sent and done bracket the HTTP exchange.
	sent, done   time.Time
	respBytes    int
	planCached   bool
	resultCached bool
	// traceID names the server's own trace of the request
	// (/debug/trace/<id>); overlayRows is Edge's overlay size an
	// /update reply reported.
	traceID     uint64
	overlayRows int
	failed      bool
	// warm marks a warm-up request: checked and counted as attempted,
	// but in no latency or rate metric.
	warm bool
}

func (s *sample) rows() int {
	if s.upd == nil {
		return 0
	}
	return len(s.upd.Inserts) + len(s.upd.Deletes)
}

// recorder collects samples, failures and deferred answers.
type recorder struct {
	mu       sync.Mutex
	samples  []*sample
	failures []string
	held     []*answer
}

// add records a sent request; a non-empty why marks it failed.
func (r *recorder) add(s *sample, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	if why != "" {
		r.failLocked(s, why)
	}
}

// fail marks a recorded request failed.
func (r *recorder) fail(s *sample, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(s, why)
}

func (r *recorder) failLocked(s *sample, why string) {
	s.failed = true
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s %s (plan_cached=%v result_cached=%v): %s", s.path, s.kind, s.planCached, s.resultCached, why))
	}
}

func (r *recorder) hold(a *answer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held = append(r.held, a)
}

func (r *recorder) takeHeld() []*answer {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.held
	r.held = nil
	return h
}

func (r *recorder) snapshot() ([]*sample, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*sample(nil), r.samples...), append([]string(nil), r.failures...)
}
