package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"emptyheaded/internal/exec"
	"emptyheaded/internal/metrics"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/trace"
)

// queryPhases are the top-level /query lifecycle spans; each gets its
// own latency histogram in /metrics and a slot in AnalyzeInfo.Phases.
// (Nested spans — per-bag execution, WAL fsync attribution — live only
// in the trace itself.)
var queryPhases = []string{"admission", "plan", "execute", "render", "cache_fill"}

// observability bundles the server's latency histograms and the
// unified structured event log (slow requests are slow_query events
// alongside rotations, compactions, breaker transitions and panics, in
// one sequenced stream). Histograms are fixed-bucket and lock-free on
// Observe; the event log serializes line writes under its own mutex.
type observability struct {
	query    *metrics.Histogram
	phases   map[string]*metrics.Histogram
	update   *metrics.Histogram
	cacheAge *metrics.Histogram
	fsync    *metrics.Histogram
	compact  *metrics.Histogram

	slowThreshold time.Duration
	events        *obs.EventLog
}

func newObservability(cfg Config) *observability {
	o := &observability{
		query:         metrics.NewHistogram(metrics.LatencyBuckets),
		phases:        make(map[string]*metrics.Histogram, len(queryPhases)),
		update:        metrics.NewHistogram(metrics.LatencyBuckets),
		cacheAge:      metrics.NewHistogram(metrics.AgeBuckets),
		fsync:         metrics.NewHistogram(metrics.FsyncBuckets),
		compact:       metrics.NewHistogram(metrics.LatencyBuckets),
		slowThreshold: cfg.SlowQueryThreshold,
		events:        cfg.Events,
	}
	for _, p := range queryPhases {
		o.phases[p] = metrics.NewHistogram(metrics.LatencyBuckets)
	}
	return o
}

// phasesOf folds a trace's spans into total microseconds per top-level
// phase (nested and unknown spans are skipped).
func phasesOf(tr *trace.Trace) map[string]int64 {
	if tr == nil {
		return nil
	}
	out := make(map[string]int64, len(queryPhases))
	for _, sp := range tr.SpansSnapshot() {
		if sp.DurUS < 0 {
			continue
		}
		for _, p := range queryPhases {
			if sp.Name == p {
				out[p] += sp.DurUS
				break
			}
		}
	}
	return out
}

// finishTrace closes the trace, books its phases into the histograms,
// and emits a slow-query line when the request crossed the threshold.
func (o *observability) finishTrace(tr *trace.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	for name, us := range phasesOf(tr) {
		o.phases[name].Observe(time.Duration(us) * time.Microsecond)
	}
	o.maybeLogSlow(tr)
}

// maybeLogSlow emits a slow_query event for requests that crossed the
// configured threshold. The fields mirror the PR 6 slow-query line;
// the ts/seq/trace_id envelope is stamped by the event log.
func (o *observability) maybeLogSlow(tr *trace.Trace) {
	if o.slowThreshold <= 0 || tr == nil {
		return
	}
	if time.Duration(tr.TotalUS)*time.Microsecond < o.slowThreshold {
		return
	}
	fields := map[string]any{
		"request":  tr.Kind,
		"total_us": tr.TotalUS,
	}
	if tr.Fingerprint != "" {
		fields["fingerprint"] = tr.Fingerprint
	}
	if ph := phasesOf(tr); len(ph) > 0 {
		fields["phases_us"] = ph
	}
	if len(tr.Attrs) > 0 {
		attrs := make(map[string]string, len(tr.Attrs))
		for _, a := range tr.Attrs {
			attrs[a.Key] = a.Val
		}
		fields["attrs"] = attrs
	}
	if tr.Error != "" {
		fields["error"] = tr.Error
	}
	o.events.Emit("slow_query", tr.ID, fields)
}

// AnalyzeInfo is the /query "analyze": true payload: the request's
// phase breakdown plus the live kernel counters and the annotated plan
// they produced.
type AnalyzeInfo struct {
	TraceID uint64 `json:"trace_id"`
	TotalUS int64  `json:"total_us"`
	// PhasesUS maps each top-level lifecycle phase to its total
	// microseconds; the phases partition the request's wall time (JSON
	// encoding and socket writes excepted).
	PhasesUS map[string]int64 `json:"phases_us"`
	// Plan is the physical plan annotated with actuals
	// (exec.Plan.ExplainAnalyze).
	Plan string `json:"plan,omitempty"`
	// Bags holds the raw per-bag, per-level execution counters.
	Bags []*exec.BagStats `json:"bags,omitempty"`
	// Kernel echoes the request's kernel hint as resolved ("auto" when
	// none was sent); the per-level routes actually taken are in
	// Bags[].Levels[].Kernel and on the annotated Plan's kernels[...]
	// columns.
	Kernel string `json:"kernel,omitempty"`
}

// traceSummary is one row of /debug/queries.
type traceSummary struct {
	ID          uint64 `json:"id"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Start       string `json:"start"`
	TotalUS     int64  `json:"total_us"`
	Spans       int    `json:"spans"`
	Error       string `json:"error,omitempty"`
}

// handleDebugQueries lists recently completed traces, newest first
// (GET /debug/queries?n=50).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	trs := s.rec.Completed(n)
	out := make([]traceSummary, 0, len(trs))
	for _, tr := range trs {
		out = append(out, traceSummary{
			ID:          tr.ID,
			Kind:        tr.Kind,
			Fingerprint: tr.Fingerprint,
			Start:       tr.Start.UTC().Format(time.RFC3339Nano),
			TotalUS:     tr.TotalUS,
			Spans:       len(tr.Spans),
			Error:       tr.Error,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleDebugTrace serves one full trace (GET /debug/trace/<id>): every
// span with offsets, durations and attributes, plus the query's
// provenance record.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		s.writeErr(w, badRequest("bad trace id %q", idStr))
		return
	}
	tr, ok := s.rec.Get(id)
	if !ok {
		s.writeErr(w, &httpError{http.StatusNotFound, "trace not retained (ring buffer wrapped or id never finished)"})
		return
	}
	writeJSON(w, http.StatusOK, tr)
}
