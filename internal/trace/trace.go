// Package trace is a lightweight span recorder for query-lifecycle
// observability. A Trace is a flat list of named spans (phase begin/end
// with microsecond offsets from trace start) plus trace-level attributes
// and, for queries, the result's determination-provenance record; a
// Recorder hands out traces with monotonically increasing IDs and keeps a
// ring buffer of the last N completed ones. That ring is the one
// per-request record store behind /debug/queries, /debug/trace,
// /debug/provenance and /debug/diff.
//
// Every method is safe on a nil receiver: a nil *Recorder starts nil
// *Traces, and all *Trace methods no-op on nil. Instrumentation sites can
// therefore call Begin/End/Annot unconditionally; the disabled path costs
// one nil check.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/prov"
)

// Attr is one key/value annotation on a trace or span.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one completed (or still-open, DurUS < 0) phase of a trace.
// Offsets are microseconds from the trace's start so a rendered trace
// reads as a timeline.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// SpanID indexes a span within its trace; -1 (from Begin on a nil trace)
// is ignored by End and SpanAttr.
type SpanID int

// Trace records one request's phases. Exported fields are read by the
// debug endpoints after Finish; during recording they are guarded by mu.
type Trace struct {
	ID          uint64    `json:"id"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Start       time.Time `json:"start"`
	TotalUS     int64     `json:"total_us"`
	Error       string    `json:"error,omitempty"`
	Spans       []Span    `json:"spans"`
	Attrs       []Attr    `json:"attrs,omitempty"`
	// Provenance is the lineage that determined a query's result: set
	// on executions and on cached serves (then the fill-time lineage
	// with Cached: true); nil for other request kinds.
	Provenance *prov.Record `json:"provenance,omitempty"`

	mu  sync.Mutex
	rec *Recorder
}

// TraceID returns the trace's ID, or 0 for a nil trace.
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// Begin opens a named span and returns its ID.
func (t *Trace) Begin(name string) SpanID {
	if t == nil {
		return -1
	}
	at := time.Since(t.Start).Microseconds()
	t.mu.Lock()
	id := SpanID(len(t.Spans))
	t.Spans = append(t.Spans, Span{Name: name, StartUS: at, DurUS: -1})
	t.mu.Unlock()
	return id
}

// End closes the span, recording its duration.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	at := time.Since(t.Start).Microseconds()
	t.mu.Lock()
	if int(id) < len(t.Spans) {
		sp := &t.Spans[id]
		sp.DurUS = at - sp.StartUS
	}
	t.mu.Unlock()
}

// SpanAttr attaches a key/value annotation to an open or closed span.
func (t *Trace) SpanAttr(id SpanID, key, val string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.Spans) {
		sp := &t.Spans[id]
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
	}
	t.mu.Unlock()
}

// SpanAttrInt is SpanAttr for integer values.
func (t *Trace) SpanAttrInt(id SpanID, key string, v int64) {
	if t == nil {
		return
	}
	t.SpanAttr(id, key, strconv.FormatInt(v, 10))
}

// Annot attaches a trace-level key/value annotation.
func (t *Trace) Annot(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Attrs = append(t.Attrs, Attr{Key: key, Val: val})
	t.mu.Unlock()
}

// AnnotInt is Annot for integer values.
func (t *Trace) AnnotInt(key string, v int64) {
	if t == nil {
		return
	}
	t.Annot(key, strconv.FormatInt(v, 10))
}

// SetFingerprint records the query's structural fingerprint.
func (t *Trace) SetFingerprint(fp string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Fingerprint = fp
	t.mu.Unlock()
}

// SetError records a request-level error.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Error = msg
	t.mu.Unlock()
}

// SetProvenance attaches the request's provenance record.
func (t *Trace) SetProvenance(rec *prov.Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Provenance = rec
	t.mu.Unlock()
}

// SpansSnapshot returns a copy of the spans recorded so far.
func (t *Trace) SpansSnapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.Spans))
	copy(out, t.Spans)
	t.mu.Unlock()
	return out
}

// Finish stamps the total duration, closes any still-open spans, and
// files the trace into its recorder's ring buffer. Call exactly once.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	at := time.Since(t.Start).Microseconds()
	t.mu.Lock()
	t.TotalUS = at
	for i := range t.Spans {
		if t.Spans[i].DurUS < 0 {
			t.Spans[i].DurUS = at - t.Spans[i].StartUS
		}
	}
	rec := t.rec
	t.rec = nil
	t.mu.Unlock()
	if rec != nil {
		rec.file(t)
	}
}

// Recorder assigns trace IDs and retains the last N finished traces.
type Recorder struct {
	lastID atomic.Uint64

	mu   sync.Mutex
	ring []*Trace // ring[next] is the oldest slot
	next int
	n    int // traces filed so far, saturating at len(ring)
}

// NewRecorder keeps the most recent n completed traces (default 256).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 256
	}
	return &Recorder{ring: make([]*Trace, n)}
}

// Start begins a new trace of the given kind. Returns nil (a valid,
// inert trace) when the recorder itself is nil.
func (r *Recorder) Start(kind string) *Trace {
	if r == nil {
		return nil
	}
	return &Trace{
		ID:    r.lastID.Add(1),
		Kind:  kind,
		Start: time.Now(),
		Spans: make([]Span, 0, 8),
		rec:   r,
	}
}

func (r *Recorder) file(t *Trace) {
	r.mu.Lock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Completed returns up to max finished traces, newest first. max <= 0
// means all retained traces.
func (r *Recorder) Completed(max int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if max <= 0 || max > r.n {
		max = r.n
	}
	out := make([]*Trace, 0, max)
	for i := 1; i <= max; i++ {
		idx := (r.next - i + len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// Get returns the retained trace with the given ID, if still in the ring.
func (r *Recorder) Get(id uint64) (*Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 1; i <= r.n; i++ {
		idx := (r.next - i + len(r.ring)) % len(r.ring)
		if tr := r.ring[idx]; tr != nil && tr.ID == id {
			return tr, true
		}
	}
	return nil, false
}
