package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"emptyheaded/internal/metrics"
	"emptyheaded/internal/obs"
)

// handleMetrics serves the same counters as /stats in the Prometheus text
// exposition format (version 0.0.4), so load-test runs can be scraped
// alongside the benchmark artifacts. Everything is rendered from one
// StatsSnapshot for a consistent view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.StatsSnapshot()
	var sb strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHeader := func(name, help string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("emptyheaded_uptime_seconds", "Seconds since the server started.", st.UptimeS)
	gauge("emptyheaded_db_epoch", "Database mutation counter (cache invalidation epoch).", float64(st.Epoch))
	gauge("emptyheaded_relations", "Number of stored relations.", float64(st.Relations))

	// Per-endpoint request counters and latency quantiles, in a stable
	// order so scrapes diff cleanly.
	paths := make([]string, 0, len(st.Endpoints))
	for p := range st.Endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	counterHeader("emptyheaded_requests_total", "Requests served per endpoint.")
	for _, p := range paths {
		fmt.Fprintf(&sb, "emptyheaded_requests_total{endpoint=%q} %d\n", p, st.Endpoints[p].Requests)
	}
	counterHeader("emptyheaded_request_errors_total", "Requests answered with a 4xx/5xx status per endpoint.")
	for _, p := range paths {
		fmt.Fprintf(&sb, "emptyheaded_request_errors_total{endpoint=%q} %d\n", p, st.Endpoints[p].Errors)
	}
	fmt.Fprintf(&sb, "# HELP %s Request latency over the recent window, in microseconds.\n# TYPE %s gauge\n",
		"emptyheaded_request_latency_us", "emptyheaded_request_latency_us")
	for _, p := range paths {
		ep := st.Endpoints[p]
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"0.5\"} %g\n", p, ep.P50US)
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"0.99\"} %g\n", p, ep.P99US)
		fmt.Fprintf(&sb, "emptyheaded_request_latency_us{endpoint=%q,quantile=\"1.0\"} %g\n", p, ep.MaxUS)
	}

	cache := func(prefix string, cs CacheStats) {
		gauge(prefix+"_size", "Entries currently cached.", float64(cs.Size))
		gauge(prefix+"_capacity", "Cache capacity.", float64(cs.Capacity))
		counterHeader(prefix+"_hits_total", "Cache hits.")
		fmt.Fprintf(&sb, "%s_hits_total %d\n", prefix, cs.Hits)
		counterHeader(prefix+"_misses_total", "Cache misses.")
		fmt.Fprintf(&sb, "%s_misses_total %d\n", prefix, cs.Misses)
		counterHeader(prefix+"_evictions_total", "Cache evictions.")
		fmt.Fprintf(&sb, "%s_evictions_total %d\n", prefix, cs.Evictions)
	}
	cache("emptyheaded_plan_cache", st.PlanCache.CacheStats)
	counterHeader("emptyheaded_plan_cache_text_hits_total", "Exact-text alias hits that skipped parsing.")
	fmt.Fprintf(&sb, "emptyheaded_plan_cache_text_hits_total %d\n", st.PlanCache.TextHits)
	counterHeader("emptyheaded_plan_cache_parses_total", "datalog parses taken on the miss path.")
	fmt.Fprintf(&sb, "emptyheaded_plan_cache_parses_total %d\n", st.PlanCache.Parses)
	counterHeader("emptyheaded_plan_cache_recompiles_total", "Epoch-invalidated plan recompilations.")
	fmt.Fprintf(&sb, "emptyheaded_plan_cache_recompiles_total %d\n", st.PlanCache.Recompiles)
	cache("emptyheaded_result_cache", st.ResultCache)

	// Streaming-update subsystem: WAL, overlays, compaction, replay.
	d := st.Durability
	counterHeader("emptyheaded_updates_total", "Streaming update batches applied.")
	fmt.Fprintf(&sb, "emptyheaded_updates_total %d\n", d.Updates)
	counterHeader("emptyheaded_update_rows_total", "Inserted + deleted rows across update batches.")
	fmt.Fprintf(&sb, "emptyheaded_update_rows_total %d\n", d.UpdateRows)
	if d.WAL.Enabled {
		counterHeader("emptyheaded_wal_records_total", "Records appended to the write-ahead log.")
		fmt.Fprintf(&sb, "emptyheaded_wal_records_total %d\n", d.WAL.Records)
		counterHeader("emptyheaded_wal_bytes_total", "Payload bytes appended to the write-ahead log.")
		fmt.Fprintf(&sb, "emptyheaded_wal_bytes_total %d\n", d.WAL.Bytes)
		counterHeader("emptyheaded_wal_fsyncs_total", "Explicit WAL fsyncs.")
		fmt.Fprintf(&sb, "emptyheaded_wal_fsyncs_total %d\n", d.WAL.Fsyncs)
		counterHeader("emptyheaded_wal_fsync_seconds_total", "Total WAL fsync latency in seconds.")
		fmt.Fprintf(&sb, "emptyheaded_wal_fsync_seconds_total %g\n", float64(d.WAL.FsyncNanos)/1e9)
		gauge("emptyheaded_wal_segments", "Live WAL segment files.", float64(d.WAL.Segments))
		gauge("emptyheaded_wal_seq", "Last assigned WAL sequence number.", float64(d.WAL.Seq))
		gauge("emptyheaded_wal_replay_records", "Records replayed from the WAL on boot.", float64(d.Replay.Records))
		gauge("emptyheaded_wal_replay_duration_seconds", "WAL replay duration on boot, in seconds.", float64(d.Replay.DurationUS)/1e6)
	}
	counterHeader("emptyheaded_compactions_total", "Delta-overlay compactions run.")
	fmt.Fprintf(&sb, "emptyheaded_compactions_total %d\n", d.Compactions)
	counterHeader("emptyheaded_compact_seconds_total", "Total compaction wall time in seconds.")
	fmt.Fprintf(&sb, "emptyheaded_compact_seconds_total %g\n", float64(d.CompactTotalUS)/1e6)
	fmt.Fprintf(&sb, "# HELP %s Live delta-overlay rows (pending inserts + tombstones) per relation.\n# TYPE %s gauge\n",
		"emptyheaded_overlay_rows", "emptyheaded_overlay_rows")
	for _, ov := range d.Overlays {
		fmt.Fprintf(&sb, "emptyheaded_overlay_rows{relation=%q} %d\n", ov.Relation, ov.Rows)
	}
	fmt.Fprintf(&sb, "# HELP %s Estimated delta-overlay bytes per relation and side (ins/del).\n# TYPE %s gauge\n",
		"emptyheaded_overlay_bytes", "emptyheaded_overlay_bytes")
	for _, ov := range d.Overlays {
		fmt.Fprintf(&sb, "emptyheaded_overlay_bytes{relation=%q,side=\"ins\"} %d\n", ov.Relation, ov.InsBytes)
		fmt.Fprintf(&sb, "emptyheaded_overlay_bytes{relation=%q,side=\"del\"} %d\n", ov.Relation, ov.DelBytes)
	}

	// Latency histograms. Phase histograms share one family under a
	// phase label; the rest are unlabeled single-series families.
	histogram := func(name, help string, h *metrics.Histogram) {
		metrics.WritePromHeader(&sb, name, help)
		h.Snapshot().WriteProm(&sb, name, "")
	}
	histogram("emptyheaded_query_seconds", "End-to-end /query latency (cached serves included).", s.obs.query)
	metrics.WritePromHeader(&sb, "emptyheaded_query_phase_seconds", "Per-phase /query latency breakdown.")
	for _, p := range queryPhases {
		s.obs.phases[p].Snapshot().WriteProm(&sb, "emptyheaded_query_phase_seconds", fmt.Sprintf("phase=%q", p))
	}
	histogram("emptyheaded_update_seconds", "End-to-end /update latency.", s.obs.update)
	histogram("emptyheaded_result_cache_age_seconds", "Result-cache entry age at serve time.", s.obs.cacheAge)
	if d.WAL.Enabled {
		histogram("emptyheaded_wal_fsync_seconds", "WAL fsync latency.", s.obs.fsync)
	}
	histogram("emptyheaded_compaction_seconds", "Delta-overlay compaction duration.", s.obs.compact)

	gauge("emptyheaded_admission_workers", "Worker slots.", float64(st.Admission.Workers))
	gauge("emptyheaded_admission_queue_depth", "Admission queue capacity.", float64(st.Admission.QueueDepth))
	gauge("emptyheaded_admission_active", "Queries executing now.", float64(st.Admission.Active))
	gauge("emptyheaded_admission_queued", "Requests waiting for a worker slot.", float64(st.Admission.Queued))
	counterHeader("emptyheaded_admission_admitted_total", "Requests admitted to a worker slot.")
	fmt.Fprintf(&sb, "emptyheaded_admission_admitted_total %d\n", st.Admission.Admitted)
	counterHeader("emptyheaded_admission_rejected_total", "Requests rejected by the admission controller.")
	fmt.Fprintf(&sb, "emptyheaded_admission_rejected_total{reason=\"queue_full\"} %d\n", st.Admission.RejectedFull)
	fmt.Fprintf(&sb, "emptyheaded_admission_rejected_total{reason=\"queue_timeout\"} %d\n", st.Admission.RejectedTimeout)

	// Failure contract: panics survived, clients that hung up, budgets
	// blown, and the durability breaker behind degraded read-only mode.
	counterHeader("emptyheaded_recovered_panics_total", "Panics recovered at the request and executor boundaries.")
	fmt.Fprintf(&sb, "emptyheaded_recovered_panics_total %d\n", s.res.recoveredPanics.Load())
	counterHeader("emptyheaded_query_cancelled_total", "Queries abandoned by their client before completion.")
	fmt.Fprintf(&sb, "emptyheaded_query_cancelled_total %d\n", s.res.cancelledClients.Load())
	counterHeader("emptyheaded_query_deadline_exceeded_total", "Queries stopped by the per-request deadline budget.")
	fmt.Fprintf(&sb, "emptyheaded_query_deadline_exceeded_total %d\n", s.res.deadlineExceeded.Load())
	counterHeader("emptyheaded_breaker_trips_total", "Durability circuit-breaker trips into degraded mode.")
	fmt.Fprintf(&sb, "emptyheaded_breaker_trips_total %d\n", s.brk.trips.Load())
	degraded := 0.0
	if !s.brk.allow() {
		degraded = 1
	}
	gauge("emptyheaded_degraded", "1 while the server is in degraded read-only mode, else 0.", degraded)
	counterHeader("emptyheaded_degraded_rejected_total", "Writes fast-failed while degraded.")
	fmt.Fprintf(&sb, "emptyheaded_degraded_rejected_total %d\n", s.res.degradedRejected.Load())

	// Cache effectiveness as ready-made ratios (hits/(hits+misses); 0
	// before any lookup), plus the workload profiler's route breakdown.
	ratio := func(cs CacheStats) float64 {
		if total := cs.Hits + cs.Misses; total > 0 {
			return float64(cs.Hits) / float64(total)
		}
		return 0
	}
	fmt.Fprintf(&sb, "# HELP %s Cache hit ratio (hits/(hits+misses)) per cache.\n# TYPE %s gauge\n",
		"emptyheaded_cache_hit_ratio", "emptyheaded_cache_hit_ratio")
	fmt.Fprintf(&sb, "emptyheaded_cache_hit_ratio{cache=\"plan\"} %g\n", ratio(st.PlanCache.CacheStats))
	fmt.Fprintf(&sb, "emptyheaded_cache_hit_ratio{cache=\"result\"} %g\n", ratio(st.ResultCache))
	wl := st.Workload
	counterHeader("emptyheaded_query_route_total", "Finished queries per cache route (workload profiler).")
	fmt.Fprintf(&sb, "emptyheaded_query_route_total{route=\"result_hit\"} %d\n", wl.ResultHits)
	fmt.Fprintf(&sb, "emptyheaded_query_route_total{route=\"plan_hit\"} %d\n", wl.PlanHits)
	fmt.Fprintf(&sb, "emptyheaded_query_route_total{route=\"miss\"} %d\n", wl.Misses)
	gauge("emptyheaded_workload_fingerprints", "Fingerprints retained in the workload registry.", float64(wl.Fingerprints))
	counterHeader("emptyheaded_workload_observed_total", "Queries merged into the workload registry.")
	fmt.Fprintf(&sb, "emptyheaded_workload_observed_total %d\n", wl.Observed)
	counterHeader("emptyheaded_workload_evictions_total", "Fingerprints LRU-evicted from the workload registry.")
	fmt.Fprintf(&sb, "emptyheaded_workload_evictions_total %d\n", wl.Evictions)
	ev := st.Events
	counterHeader("emptyheaded_events_total", "Events written to the unified event log.")
	fmt.Fprintf(&sb, "emptyheaded_events_total %d\n", ev.Events)
	counterHeader("emptyheaded_event_log_rotations_total", "Size-triggered event-log rotations.")
	fmt.Fprintf(&sb, "emptyheaded_event_log_rotations_total %d\n", ev.Rotations)
	counterHeader("emptyheaded_event_log_dropped_total", "Events dropped on marshal/write failure.")
	fmt.Fprintf(&sb, "emptyheaded_event_log_dropped_total %d\n", ev.Dropped)

	// Relation heat: which relations the workload actually touches.
	if heat := s.heat.Snapshot(); len(heat) > 0 {
		counterHeader("emptyheaded_relation_reads_total", "Query executions reading each relation.")
		for _, h := range heat {
			fmt.Fprintf(&sb, "emptyheaded_relation_reads_total{relation=%q} %d\n", h.Relation, h.Reads)
		}
		counterHeader("emptyheaded_relation_probes_total", "Loop-nest probes attributed to each relation (participation counts).")
		for _, h := range heat {
			fmt.Fprintf(&sb, "emptyheaded_relation_probes_total{relation=%q} %d\n", h.Relation, h.Probes)
		}
		counterHeader("emptyheaded_relation_update_rows_total", "Streamed update rows applied to each relation.")
		for _, h := range heat {
			fmt.Fprintf(&sb, "emptyheaded_relation_update_rows_total{relation=%q} %d\n", h.Relation, h.UpdateRows)
		}
	}

	// Determination provenance: the trace ring's record occupancy and
	// the result-cache self-auditor's counters. eh_audit_mismatch_total is the alerting
	// signal — any nonzero value means the cache served bytes the current
	// data no longer determines.
	pv := st.Provenance
	gauge("eh_provenance_ring_records", "Retained request traces that carry a provenance record.", float64(pv.Ring.Retained))
	gauge("eh_provenance_ring_capacity", "Trace ring capacity, shared by traces and their provenance records.", float64(pv.Ring.Capacity))
	counterHeader("eh_provenance_records_total", "Provenance records built since boot (executions + cached serves).")
	fmt.Fprintf(&sb, "eh_provenance_records_total %d\n", pv.Ring.Total)
	counterHeader("eh_audit_checks_total", "Result-cache audit re-executions (sampled + on-demand sweeps).")
	fmt.Fprintf(&sb, "eh_audit_checks_total %d\n", pv.Audit.Checks)
	counterHeader("eh_audit_mismatch_total", "Cache audits whose re-execution disagreed with the served bytes.")
	fmt.Fprintf(&sb, "eh_audit_mismatch_total %d\n", pv.Audit.Mismatches)
	counterHeader("eh_audit_evicted_total", "Cache entries evicted by the auditor.")
	fmt.Fprintf(&sb, "eh_audit_evicted_total %d\n", pv.Audit.Evicted)

	// Standard build-info gauge: constant 1, metadata in the labels.
	fmt.Fprintf(&sb, "# HELP eh_build_info Build metadata of the serving binary.\n# TYPE eh_build_info gauge\n")
	sb.WriteString(obs.ReadBuildInfo().PromLine())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}
