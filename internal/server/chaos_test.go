package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/wal"
)

// newChaosService builds a WAL-backed test service whose file operations
// route through the given injector (points "wal.*").
func newChaosService(t *testing.T, cfg Config, in *fault.Injector) (*Server, *httptest.Server) {
	t.Helper()
	eng := core.New()
	eng.LoadGraph("Edge", gen.PowerLaw(150, 900, 2.1, 42))
	if _, err := eng.OpenWAL(core.WALConfig{Dir: t.TempDir(), Sync: wal.SyncAlways, FS: fault.NewFS(in, "wal")}); err != nil {
		t.Fatal(err)
	}
	s := New(eng, cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postUpdate(t *testing.T, base string) (int, string, http.Header) {
	t.Helper()
	body, err := json.Marshal(UpdateRequest{Name: "Edge", Inserts: [][]uint32{{200, 201}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String(), resp.Header
}

// TestBreakerTripsAndRecovers drives the full degraded-mode cycle:
// persistent fsync failures trip the durability breaker, writes fail
// fast with Retry-After while queries and readiness report degraded,
// and once the disk heals the background probe restores writes.
func TestBreakerTripsAndRecovers(t *testing.T) {
	in := fault.New(31)
	s, ts := newChaosService(t, Config{
		BreakerThreshold: 2,
		BreakerProbe:     10 * time.Millisecond,
		RetryAfter:       2 * time.Second,
	}, in)

	// Healthy baseline: a write lands.
	if code, body, _ := postUpdate(t, ts.URL); code != http.StatusOK {
		t.Fatalf("baseline update: %d %s", code, body)
	}

	// The disk dies: every fsync fails from here on.
	in.Add(fault.Rule{Point: "wal.sync", Kind: fault.Err, OnCall: 1, Times: -1})
	for i := 0; i < 2; i++ {
		code, body, hdr := postUpdate(t, ts.URL)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("failing update %d: %d %s (%s)", i, code, body, in)
		}
		if hdr.Get("Retry-After") != "2" {
			t.Fatalf("failing update %d: Retry-After %q, want \"2\"", i, hdr.Get("Retry-After"))
		}
	}
	// Threshold reached: the breaker is open, writes fail fast without
	// touching the WAL.
	code, body, hdr := postUpdate(t, ts.URL)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded update: %d %s (%s)", code, body, in)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	// Reads keep serving.
	if qr := runQuery(t, ts.URL, triangleQ); qr.Cardinality < 0 {
		t.Fatal("query failed while degraded")
	}
	// Readiness reports the degradation.
	var rz struct {
		Ready    bool   `json:"ready"`
		Phase    string `json:"phase"`
		Degraded bool   `json:"degraded"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rz); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: %d %+v", code, rz)
	}
	if rz.Ready || !rz.Degraded || rz.Phase != "ready" {
		t.Fatalf("/readyz payload %+v", rz)
	}
	if got := metricsText(t, ts.URL); !strings.Contains(got, "emptyheaded_degraded 1") ||
		!strings.Contains(got, "emptyheaded_breaker_trips_total 1") {
		t.Fatalf("/metrics does not show the open breaker (%s)", in)
	}

	// The disk heals; the probe loop notices and writes resume.
	in.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body, _ := postUpdate(t, ts.URL)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: last %d %s (%s)", code, body, in)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/readyz", &rz); code != http.StatusOK || !rz.Ready {
		t.Fatalf("/readyz after recovery: %d %+v", code, rz)
	}
	_ = s
}

// TestPanicIsolation: an injected executor panic becomes a 500 carrying
// the request's trace ID, the worker slot is reusable, and the panic is
// counted — the process never dies.
func TestPanicIsolation(t *testing.T) {
	_, ts := newTestService(t, Config{})
	in := fault.New(32, fault.Rule{Point: "exec.worker", Kind: fault.PanicKind, OnCall: 1})
	restore := fault.Enable(in)
	var qr QueryResponse
	code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: triangleQ, NoCache: true}, &qr)
	restore()
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking query: %d %s (%s)", code, body, in)
	}
	if !strings.Contains(body, "panic") || !strings.Contains(body, "trace_id") {
		t.Fatalf("panic 500 body %q lacks panic message or trace_id", body)
	}
	// The server keeps serving.
	runQuery(t, ts.URL, triangleQ)
	if got := metricsText(t, ts.URL); !strings.Contains(got, "emptyheaded_recovered_panics_total 1") {
		t.Fatalf("recovered panic not counted (%s)", in)
	}
}

// TestPanicAfterAdmissionReleasesSlot: a panic while a request holds its
// worker slot still gives the slot back. With one worker, the query after
// a panicking cache fill is admitted instead of shed behind a leaked slot.
func TestPanicAfterAdmissionReleasesSlot(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1, QueueWait: 100 * time.Millisecond})
	in := fault.New(35, fault.Rule{Point: "server.cache.stamp", Kind: fault.PanicKind, OnCall: 1})
	restore := fault.Enable(in)
	defer restore()
	code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: triangleQ}, nil)
	if code != http.StatusInternalServerError || !strings.Contains(body, `"trace_id":`) {
		t.Fatalf("panicking cache fill: %d %s (%s)", code, body, in)
	}
	// no_cache skips the fill, so the armed rule stays quiet.
	var qr QueryResponse
	if code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: triangleQ, NoCache: true}, &qr); code != http.StatusOK || qr.Scalar == nil {
		t.Fatalf("query after the panic: %d %s", code, body)
	}
	if a := s.StatsSnapshot().Admission.Active; a != 0 {
		t.Fatalf("admission.active = %d after both requests finished", a)
	}
}

// TestClientCancellationFreesSlot: a dropped client releases its worker
// slot promptly — with a single worker, a follow-up query is admitted
// and served instead of queue-timing out behind a zombie.
func TestClientCancellationFreesSlot(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, QueueWait: time.Second})
	// Latency injection makes the query slow enough to cancel mid-flight
	// (each worker block claim sleeps).
	in := fault.New(33, fault.Rule{Point: "exec.worker", Kind: fault.Latency, OnCall: 1, Times: -1, Sleep: 50 * time.Millisecond})
	restore := fault.Enable(in)
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		body := strings.NewReader(`{"query":"` + pathQ + `","no_cache":true}`)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", body)
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it get admitted and run
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request reported success")
	}

	// The slot must come back within the cooperative stop interval.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker slot never released after client cancel (%s)", in)
		}
		time.Sleep(10 * time.Millisecond)
	}
	in.Clear()
	// The single worker serves again without queue-timeout.
	runQuery(t, ts.URL, triangleQ)

	// The abandonment is counted (booking happens as the handler
	// unwinds, possibly after the client's error returns — poll).
	deadline = time.Now().Add(2 * time.Second)
	for s.res.cancelledClients.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled client never counted (%s)", in)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryDeadline: a configured per-request budget stops a slow query
// with 504 and counts it.
func TestQueryDeadline(t *testing.T) {
	_, ts := newTestService(t, Config{QueryDeadline: 60 * time.Millisecond})
	in := fault.New(34, fault.Rule{Point: "exec.worker", Kind: fault.Latency, OnCall: 1, Times: -1, Sleep: 40 * time.Millisecond})
	restore := fault.Enable(in)
	var qr QueryResponse
	code, body := postJSON(t, ts.URL+"/query", QueryRequest{Query: pathQ, NoCache: true}, &qr)
	restore()
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: %d %s (%s)", code, body, in)
	}
	if got := metricsText(t, ts.URL); !strings.Contains(got, "emptyheaded_query_deadline_exceeded_total 1") {
		t.Fatalf("deadline exceed not counted (%s)", in)
	}
}

// metricsText fetches /metrics as a string.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 16384)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
