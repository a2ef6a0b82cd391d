package server

import (
	"context"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"emptyheaded/internal/prov"
	"emptyheaded/internal/trace"
)

// Determination provenance (see docs/PROVENANCE.md): every executed
// query gets a prov.Record stamping the lineage that determined its
// result — plan fingerprint, restore generation, and the per-relation
// (epoch, overlay generation, WAL applied-seq watermark) triple. Each
// record is filed on its request's trace, so the trace ring is the one
// store of per-request records. The records feed three consumers: the
// /query response (opt-in via "provenance": true), /debug/provenance +
// the /debug/diff why-changed differ, and the result-cache self-auditor
// below.

// auditCounters books the self-auditor's lifetime totals.
type auditCounters struct {
	// sampled counts cached serves picked by the background sampler;
	// checks counts completed re-executions (sampled + on-demand sweeps).
	sampled    atomic.Int64
	checks     atomic.Int64
	mismatches atomic.Int64
	evicted    atomic.Int64
	errors     atomic.Int64
}

// AuditStats is the JSON rendering of the self-auditor's counters.
type AuditStats struct {
	Sampled    int64 `json:"sampled"`
	Checks     int64 `json:"checks"`
	Mismatches int64 `json:"mismatches"`
	Evicted    int64 `json:"evicted"`
	Errors     int64 `json:"errors"`
}

// ProvenanceStats is the provenance section of /stats.
type ProvenanceStats struct {
	Enabled bool          `json:"enabled"`
	Ring    ProvRingStats `json:"ring"`
	Audit   AuditStats    `json:"audit"`
}

// ProvRingStats is the trace ring's provenance occupancy: Capacity is
// the ring's size, Retained the retained traces that carry a record,
// Total the records built since boot.
type ProvRingStats struct {
	Capacity int    `json:"capacity"`
	Retained int    `json:"retained"`
	Total    uint64 `json:"total"`
}

func (s *Server) provenanceStats() ProvenanceStats {
	var ring ProvRingStats
	if s.rec != nil {
		ring = ProvRingStats{Capacity: s.cfg.TraceRing, Retained: len(s.retainedProv()), Total: s.provRecords.Load()}
	}
	return ProvenanceStats{
		Enabled: s.rec != nil,
		Ring:    ring,
		Audit: AuditStats{
			Sampled:    s.audit.sampled.Load(),
			Checks:     s.audit.checks.Load(),
			Mismatches: s.audit.mismatches.Load(),
			Evicted:    s.audit.evicted.Load(),
			Errors:     s.audit.errors.Load(),
		},
	}
}

// noteProvenance builds, files and logs the provenance record of one
// executed query. relEpochs/dictEpoch are the fork's epochs the
// execution actually ran against; the overlay/watermark coordinates are
// read from the engine's live lineage. Returns nil when observability
// is off.
func (s *Server) noteProvenance(tr *trace.Trace, fp string, gen uint64, reads []string, relEpochs []uint64, dictEpoch uint64, cardinality int) *prov.Record {
	if s.rec == nil {
		return nil
	}
	tid := tr.TraceID() // 0 for internal callers (crash drills) without a trace
	lin := s.eng.Lineage(reads)
	rec := &prov.Record{
		TraceID:     tid,
		Fingerprint: fp,
		Generation:  gen,
		DictEpoch:   dictEpoch,
		Cardinality: cardinality,
		At:          time.Now(),
		Relations:   make([]prov.RelLineage, len(reads)),
	}
	for i, name := range reads {
		p := lin[name]
		rec.Relations[i] = prov.RelLineage{
			Relation:    name,
			Epoch:       relEpochs[i],
			OverlayGen:  p.OverlayGen,
			WALSeq:      p.WALSeq,
			OverlayRows: p.OverlayRows,
		}
	}
	tr.SetProvenance(rec)
	s.provRecords.Add(1)
	// Only executions emit: cached serves would repeat the same lineage
	// per hit, and the hit itself is already visible in the trace.
	s.obs.events.Emit("query_provenance", tid, map[string]any{
		"fingerprint": fp,
		"generation":  gen,
		"cardinality": cardinality,
		"relations":   rec.Relations,
	})
	return rec
}

// provOnServe records a cached serve: the fill-time record — the state
// that determined the bytes being served — cloned and re-stamped with
// this request's trace id and Cached: true, so /debug/trace/<id> and
// /debug/provenance/<id> resolve for hits too.
func (s *Server) provOnServe(cr *cachedResult, tr *trace.Trace) *prov.Record {
	if cr.prov == nil || tr == nil {
		return nil
	}
	rec := cr.prov.Clone()
	rec.TraceID = tr.ID
	rec.Cached = true
	rec.At = time.Now()
	tr.SetProvenance(rec)
	s.provRecords.Add(1)
	return rec
}

// retainedProv returns the provenance records of the retained traces,
// newest first.
func (s *Server) retainedProv() []*prov.Record {
	var out []*prov.Record
	for _, tr := range s.rec.Completed(0) {
		if tr.Provenance != nil {
			out = append(out, tr.Provenance)
		}
	}
	return out
}

// provOf resolves a trace id to the provenance record filed on it.
func (s *Server) provOf(id uint64) (*prov.Record, bool) {
	tr, ok := s.rec.Get(id)
	if !ok || tr.Provenance == nil {
		return nil, false
	}
	return tr.Provenance, true
}

// maybeSampleAudit flips the AuditFraction coin on a cached serve and,
// when it lands, re-executes the served entry in the background and
// compares. The sampler is the always-on tripwire; POST /debug/audit is
// the on-demand full sweep.
func (s *Server) maybeSampleAudit(key string) {
	f := s.cfg.AuditFraction
	if f <= 0 {
		return
	}
	if f < 1 && rand.Float64() >= f {
		return
	}
	s.audit.sampled.Add(1)
	go func() {
		v, ok := s.results.peek(key)
		if !ok {
			return // evicted since the serve; nothing to audit
		}
		cr := v.(*cachedResult)
		if cr.query == "" {
			return
		}
		s.auditOne(context.Background(), key, cr)
	}()
}

// auditOne re-executes the query that filled a cache entry (bypassing
// the cache) and compares content. A mismatch means the entry's
// validity stamp lies — it claims freshness for bytes the current data
// no longer determines — so the entry is evicted, eh_audit_mismatch_total
// is bumped, and an audit_mismatch event carries the provenance diff.
// Returns whether a mismatch was found.
func (s *Server) auditOne(ctx context.Context, key string, cr *cachedResult) (bool, error) {
	s.audit.checks.Add(1)
	tr := s.rec.Start("audit")
	q := &queryArgs{
		QueryRequest: &QueryRequest{Query: cr.query, Limit: cr.limit, NoCache: true, Columns: cr.columns},
		limit:        cr.limit,
	}
	var resp QueryResponse
	err := s.admitted(ctx, nil, func() (err error) {
		resp, _, err = s.runQuery(ctx, q, tr)
		return err
	})
	if err != nil {
		tr.SetError(err.Error())
		s.obs.finishTrace(tr)
		s.audit.errors.Add(1)
		return false, err
	}
	s.obs.finishTrace(tr)
	if respContentEqual(&cr.resp, &resp) {
		return false, nil
	}
	s.audit.mismatches.Add(1)
	s.results.remove(key)
	s.audit.evicted.Add(1)
	fields := map[string]any{
		"key":                key,
		"fingerprint":        cr.fp,
		"cached_cardinality": cr.resp.Cardinality,
		"actual_cardinality": resp.Cardinality,
	}
	// Attribute the drift: diff the entry's fill-time record against the
	// re-execution's (same fingerprint by construction).
	if cr.prov != nil && tr.Provenance != nil {
		if d, derr := prov.Diff(cr.prov, tr.Provenance); derr == nil {
			fields["cardinality_delta"] = d.CardinalityDelta
			fields["drifted"] = d.Drifted
		}
	}
	s.obs.events.Emit("audit_mismatch", tr.TraceID(), fields)
	return true, nil
}

// respContentEqual compares the determined content of two responses:
// cardinality, scalar, tuples/columns/annotations and truncation.
// Attrs are excluded (cached entries hold canonical names, fresh
// executions client spellings), as are per-request fields (trace id,
// elapsed, cache flags).
func respContentEqual(a, b *QueryResponse) bool {
	return a.Cardinality == b.Cardinality && a.Truncated == b.Truncated &&
		(a.Scalar == nil) == (b.Scalar == nil) && (a.Scalar == nil || *a.Scalar == *b.Scalar) &&
		rowsEqual(a.Tuples, b.Tuples) && rowsEqual(a.Columns, b.Columns) && slices.Equal(a.Anns, b.Anns)
}

func rowsEqual(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }

// handleDebugProvenance serves the records the trace ring retains:
// /debug/provenance lists recent ones (?n=, default 50) with occupancy
// stats; /debug/provenance/<id> resolves one trace id.
func (s *Server) handleDebugProvenance(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.writeErr(w, &httpError{http.StatusNotFound, "provenance disabled"})
		return
	}
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/provenance"), "/")
	if rest == "" {
		n := 50
		if v := r.URL.Query().Get("n"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p <= 0 {
				s.writeErr(w, badRequest("bad n: %q", v))
				return
			}
			n = p
		}
		records := s.retainedProv()
		writeJSON(w, http.StatusOK, map[string]any{
			"stats":   s.provenanceStats().Ring,
			"records": records[:min(n, len(records))],
		})
		return
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		s.writeErr(w, badRequest("bad trace id: %q", rest))
		return
	}
	rec, ok := s.provOf(id)
	if !ok {
		s.writeErr(w, &httpError{http.StatusNotFound, "no provenance record for trace " + rest})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDebugDiff answers "why did this result change?": given two trace
// ids of the same fingerprint (?a=&?b=), it reports which relations'
// lineage drifted between the executions.
func (s *Server) handleDebugDiff(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.writeErr(w, &httpError{http.StatusNotFound, "provenance disabled"})
		return
	}
	parse := func(name string) (*prov.Record, error) {
		v := r.URL.Query().Get(name)
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, badRequest("bad %s: %q", name, v)
		}
		rec, ok := s.provOf(id)
		if !ok {
			return nil, &httpError{http.StatusNotFound, "no provenance record for trace " + v}
		}
		return rec, nil
	}
	from, err := parse("a")
	if err != nil {
		s.writeErr(w, err)
		return
	}
	to, err := parse("b")
	if err != nil {
		s.writeErr(w, err)
		return
	}
	d, err := prov.Diff(from, to)
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"from": from, "to": to, "diff": d})
}

// handleDebugAudit sweeps the whole result cache on demand: every
// auditable entry is re-executed and compared. Entries that already
// fail their freshness check are skipped (the normal epoch vector
// handles them); the sweep exists to catch entries whose stamp lies.
func (s *Server) handleDebugAudit(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	t0 := time.Now()
	var checked, skippedStale, mismatches, errs int
	var evicted []string
	for _, ent := range s.results.entries() {
		cr, ok := ent.val.(*cachedResult)
		if !ok || cr.query == "" {
			continue
		}
		if !cr.fresh(s.eng.DB) {
			skippedStale++
			continue
		}
		checked++
		bad, err := s.auditOne(r.Context(), ent.key, cr)
		if err != nil {
			errs++
			continue
		}
		if bad {
			mismatches++
			evicted = append(evicted, ent.key)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"checked":       checked,
		"skipped_stale": skippedStale,
		"mismatches":    mismatches,
		"evicted":       evicted,
		"errors":        errs,
		"elapsed_us":    time.Since(t0).Microseconds(),
	})
}
