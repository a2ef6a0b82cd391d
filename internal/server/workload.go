package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/prov"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
)

// noteQuery merges one finished /query request into the workload
// registry. Called on every terminal path of the handler — fast-path
// serve, full-path success, and error — exactly once each; requests
// that never resolved a fingerprint (parse errors, admission shed) are
// dropped by the registry.
func (s *Server) noteQuery(tr *trace.Trace, req *QueryRequest, resp *QueryResponse, meta *runMeta, elapsed time.Duration, err error) {
	if s.workload == nil || tr == nil {
		return
	}
	q := obs.QueryObs{
		Fingerprint: tr.Fingerprint,
		Query:       req.Query,
		TraceID:     tr.ID,
		Latency:     elapsed,
		PhasesUS:    phasesOf(tr),
		Route:       obs.RouteMiss,
	}
	if meta != nil {
		q.Route = meta.route
		if meta.stats != nil {
			q.Intersections, q.Probes, q.Skipped = meta.stats.Totals()
		}
	}
	if resp != nil {
		q.Rows = int64(resp.Cardinality)
	}
	if err != nil {
		// Client disconnects and deadline trips are cancellations, not
		// query failures; everything else books as an error.
		if errors.Is(err, exec.ErrCanceled) || errors.Is(err, context.Canceled) ||
			errors.Is(err, exec.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
			q.Cancelled = true
		} else {
			q.Err = true
		}
	}
	s.workload.Observe(q)
}

// noteHeatReads books one query execution's read set into the relation
// heat map, classifying each read as overlay (served through a
// delta-overlay merged view) or base.
func (s *Server) noteHeatReads(db *exec.DB, reads []string) {
	if s.heat == nil {
		return
	}
	for _, name := range reads {
		overlay := false
		if rel, ok := db.Relation(name); ok {
			overlay = rel.HasOverlay()
		}
		s.heat.NoteRead(name, overlay)
	}
}

// handleDebugWorkload serves the per-fingerprint registry
// (GET /debug/workload?sort=count|latency|rows&n=20).
func (s *Server) handleDebugWorkload(w http.ResponseWriter, r *http.Request) {
	if s.workload == nil {
		s.writeErr(w, &httpError{http.StatusNotFound, "workload stats disabled"})
		return
	}
	sortKey := r.URL.Query().Get("sort")
	switch sortKey {
	case "", obs.SortCount:
		sortKey = obs.SortCount
	case obs.SortLatency, obs.SortRows:
	default:
		s.writeErr(w, badRequest("bad sort %q (count|latency|rows)", sortKey))
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			s.writeErr(w, badRequest("bad n %q", v))
			return
		}
		n = parsed
	}
	// Each fingerprint row links the provenance record of its last
	// observed request (while the trace ring retains it) — one click
	// from "this query is hot" to "this is the lineage it last ran on".
	type workloadRow struct {
		obs.FingerprintStats
		Provenance *prov.Record `json:"provenance,omitempty"`
	}
	top := s.workload.TopK(sortKey, n)
	rows := make([]workloadRow, len(top))
	for i, fs := range top {
		rows[i] = workloadRow{FingerprintStats: fs}
		rows[i].Provenance, _ = s.provOf(fs.LastTraceID)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"totals":       s.workload.Totals(),
		"sort":         sortKey,
		"fingerprints": rows,
	})
}

// relationHeatRow is one /debug/relations row: the catalog description
// joined with the relation's heat counters.
type relationHeatRow struct {
	core.RelationInfo
	// HasOverlay reports whether the relation currently serves through a
	// delta-overlay merged view (pending streaming updates).
	HasOverlay bool `json:"has_overlay"`
	// Heat carries the workload counters; nil when the relation has
	// never been read or updated since boot (or observability is off).
	Heat *obs.RelationHeat `json:"heat,omitempty"`
	// LayoutProfile is the per-level physical layout mix the adaptive
	// layout optimizer chose for the relation's canonical trie (sets and
	// members per layout per level).
	LayoutProfile []trie.LevelLayoutProfile `json:"layout_profile,omitempty"`
}

// handleDebugRelations serves the relation heat map joined with the
// catalog (GET /debug/relations). Relations that vanished from the
// catalog (dropped, restored over) keep their heat rows with zeroed
// catalog fields.
func (s *Server) handleDebugRelations(w http.ResponseWriter, r *http.Request) {
	heat := map[string]*obs.RelationHeat{}
	if s.heat != nil {
		snap := s.heat.Snapshot()
		for i := range snap {
			heat[snap[i].Relation] = &snap[i]
		}
	}
	rows := make([]relationHeatRow, 0, len(heat))
	seen := map[string]bool{}
	for _, info := range s.eng.Relations() {
		row := relationHeatRow{RelationInfo: info, Heat: heat[info.Name]}
		if rel, ok := s.eng.DB.Relation(info.Name); ok {
			row.HasOverlay = rel.HasOverlay()
			row.LayoutProfile = rel.Canonical().LayoutProfile()
		}
		rows = append(rows, row)
		seen[info.Name] = true
	}
	for _, h := range heat {
		if !seen[h.Relation] {
			rows = append(rows, relationHeatRow{
				RelationInfo: core.RelationInfo{Name: h.Relation},
				Heat:         h,
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"relations": rows})
}

// planCacheEntry is one /debug/cache plan row.
type planCacheEntry struct {
	Fingerprint string   `json:"fingerprint"`
	Reads       []string `json:"reads,omitempty"`
	// Epoch is the database version the cached compilation is valid for.
	Epoch uint64 `json:"epoch"`
	Hits  int64  `json:"hits"`
}

// resultCacheEntry is one /debug/cache result row.
type resultCacheEntry struct {
	Key   string   `json:"key"`
	Reads []string `json:"reads,omitempty"`
	// RelEpochs / DictEpoch stamp the entry's validity: the per-relation
	// epochs of the read set (aligned with Reads) and the dictionary
	// epoch at fill time.
	RelEpochs   []uint64 `json:"rel_epochs,omitempty"`
	DictEpoch   uint64   `json:"dict_epoch"`
	AgeS        float64  `json:"age_s"`
	Hits        int64    `json:"hits"`
	Cardinality int      `json:"cardinality"`
	Truncated   bool     `json:"truncated,omitempty"`
	// ApproxBytes estimates the cached payload (8 bytes per rendered
	// cell plus annotations).
	ApproxBytes int64 `json:"approx_bytes"`
	// Provenance is the record of the execution that filled the entry
	// (nil when observability is off).
	Provenance *prov.Record `json:"provenance,omitempty"`
}

// handleDebugCache serves the plan and result caches' live contents
// (GET /debug/cache), most recently used first, with per-entry hit
// counts — which fingerprints the caches are actually retaining, and
// which entries earn their slots.
func (s *Server) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	plans := make([]planCacheEntry, 0)
	for _, ent := range s.plans.plans.entries() {
		pe := ent.val.(*planEntry)
		plans = append(plans, planCacheEntry{
			Fingerprint: pe.fp,
			Reads:       pe.reads,
			Epoch:       pe.epoch,
			Hits:        ent.hits,
		})
	}
	results := make([]resultCacheEntry, 0)
	for _, ent := range s.results.entries() {
		cr := ent.val.(*cachedResult)
		row := resultCacheEntry{
			Key:         ent.key,
			Reads:       cr.reads,
			RelEpochs:   cr.relEpochs,
			DictEpoch:   cr.dictEpoch,
			AgeS:        now.Sub(cr.createdAt).Seconds(),
			Hits:        ent.hits,
			Cardinality: cr.resp.Cardinality,
			Truncated:   cr.resp.Truncated,
			ApproxBytes: approxRespBytes(&cr.resp),
			Provenance:  cr.prov,
		}
		results = append(results, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"plan_cache": map[string]any{
			"stats":   s.plans.stats(),
			"entries": plans,
		},
		"result_cache": map[string]any{
			"stats":   s.results.stats(),
			"entries": results,
		},
	})
}

// approxRespBytes estimates a cached response's memory footprint from
// its rendered payload: 8 bytes per tuple/column cell and annotation.
func approxRespBytes(resp *QueryResponse) int64 {
	var cells int64
	for _, t := range resp.Tuples {
		cells += int64(len(t))
	}
	for _, c := range resp.Columns {
		cells += int64(len(c))
	}
	cells += int64(len(resp.Anns))
	return cells * 8
}
