package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/trie"
	"emptyheaded/internal/wal"
)

// span is one timed call into a module's public function. Spans of one
// replayed request share Req; Parent is the enclosing span (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span; on a nil tracer it does nothing.
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes a span and returns its duration (0 on a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals accumulates the replayed direct calls of the measured
// queries (µs, calls and counters).
type layerTotals struct {
	parse, fingerprint, prep, run, build float64
	parses, preps, runs, builds          int
	buildRows                            int64
	allocBytes                           uint64
	intersections, probes, emitted       int64
	kernelCalls, wordParallel            int64
}

// liveStats is the slice of the server's /stats the per-layer metrics
// read.
type liveStats struct {
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"result_cache"`
}

// srvTrace is the server's own trace of one request (/debug/trace/<id>):
// total_us runs from the handler's start (after the request body is
// decoded) until the trace closes, before the reply is encoded.
type srvTrace struct {
	TotalUS int64 `json:"total_us"`
	Spans   []struct {
		Name  string `json:"name"`
		DurUS int64  `json:"dur_us"`
		Attrs []struct {
			Key string `json:"key"`
			Val string `json:"val"`
		} `json:"attrs"`
	} `json:"spans"`
}

// phaseUS sums the durations of the trace's spans named name.
func (t *srvTrace) phaseUS(name string) float64 {
	var us int64
	for _, sp := range t.Spans {
		if sp.Name == name && sp.DurUS >= 0 {
			us += sp.DurUS
		}
	}
	return float64(us)
}

// spanAttr sums the integer attribute key over the spans named name.
func (t *srvTrace) spanAttr(name, key string) int64 {
	var n int64
	for _, sp := range t.Spans {
		if sp.Name != name {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				v, _ := strconv.ParseInt(a.Val, 10, 64)
				n += v
			}
		}
	}
	return n
}

// The server's top-level trace phases: every /query phase, and the
// /update spans that Engine.UpdateTraced records.
var (
	queryPhases  = []string{"admission", "plan", "execute", "render", "cache_fill"}
	updatePhases = []string{"admission", "wal_append", "cardinality", "overlay_merge"}
)

// tracesPerKind caps how many measured queries, and how many updates,
// the traced run reads back from the server; they are spread evenly over
// the stream.
const tracesPerKind = 2000

// traced is a live request together with the server's trace of it.
type traced struct {
	s  *sample
	tr *srvTrace
}

// fetchTraces reads back the server's traces of up to tracesPerKind of
// ss, evenly spaced.
func (r *runner) fetchTraces(ss []*sample) ([]traced, error) {
	var out []traced
	n := min(len(ss), tracesPerKind)
	for i := 0; i < n; i++ {
		s := ss[i*len(ss)/n]
		if s.failed || s.traceID == 0 {
			continue
		}
		var t srvTrace
		if err := r.cl.get(fmt.Sprintf("/debug/trace/%d", s.traceID), &t); err != nil {
			return nil, fmt.Errorf("trace %d of a %s request: %w", s.traceID, s.kind, err)
		}
		out = append(out, traced{s, &t})
	}
	return out, nil
}

// traceRingFor sizes the server's trace ring so it still holds every
// request of a window of the given length when the run ends.
func traceRingFor(window time.Duration) int {
	return int(window.Seconds()+2)*2000 + probeMaxBatches + 1024
}

// tracedRun measures the per-layer metrics. It runs the workload live,
// untraced by this process, against a server whose trace ring keeps
// every request, and splits each read-back request's client latency into
// the server's own phases of that request. It then replays the recorded
// stream in process with a span around each direct call into a module's
// public functions, for the layer timings and counters the server's
// trace does not split out.
func (r *runner) tracedRun(spansPath string) (*result, error) {
	tr := &tracer{t0: time.Now()}
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	// storage: snapshot and restore of the served database.
	src := core.New()
	src.LoadGraph("Edge", r.g)
	if r.pruned != nil {
		src.LoadGraph("Pruned", r.pruned)
	}
	var snaps, restores []float64
	for i := 0; i < 3; i++ {
		id := tr.begin(0, 0, "storage.snapshot")
		if _, err := src.Snapshot(filepath.Join(r.dir, fmt.Sprintf("snap%d", i))); err != nil {
			return nil, err
		}
		snaps = append(snaps, us(tr.end(id)))
	}
	var eng *core.Engine
	for i := 0; i < 3; i++ {
		eng = core.New()
		id := tr.begin(0, 0, "storage.restore")
		if _, err := eng.Restore(r.dataDir); err != nil {
			return nil, err
		}
		restores = append(restores, us(tr.end(id)))
	}
	snapBytes, err := dirBytes(r.dataDir)
	if err != nil {
		return nil, err
	}
	var baseRows int
	for _, ri := range eng.Relations() {
		baseRows += ri.Cardinality
	}
	put("storage.snapshot_us", "us", median(snaps))
	put("storage.restore_us", "us", median(restores))
	put("storage.bytes_per_edge", "B/row", float64(snapBytes)/float64(baseRows))

	// Live: the run the end-to-end metrics come from, with every request's
	// server trace retained and read back afterwards.
	r.traceRing = traceRingFor(r.window)
	if _, err := r.boot(1); err != nil {
		return nil, err
	}
	m, err := r.measure()
	var st liveStats
	var qtr, utr []traced
	if err == nil {
		err = r.cl.get("/stats", &st)
	}
	if err == nil {
		qtr, err = r.fetchTraces(pick(m.samples, isQuery))
	}
	if err == nil {
		utr, err = r.fetchTraces(pick(m.samples, isUpdate))
	}
	r.shutdown()
	if err != nil {
		return nil, err
	}
	if err := r.reconcile(put, qtr, utr); err != nil {
		return nil, err
	}

	// In process: the recorded stream's direct calls against the
	// restored engine, with a WAL of its own under the same policy.
	eng.SetAutoCompact(core.DefaultCompactRatio, core.DefaultCompactMin)
	replayWAL := filepath.Join(r.dir, "wal-replay")
	if _, err := eng.OpenWAL(core.WALConfig{Dir: replayWAL, Sync: wal.SyncAlways}); err != nil {
		return nil, err
	}
	defer eng.CloseWAL()

	// Queries replay for at most the window. Each runs once without spans
	// and once with them, alternating which goes first, for the cost of
	// tracing; only the traced calls enter the layer totals.
	var qt layerTotals
	plain, spanned := map[string]*exec.Prepared{}, map[string]*exec.Prepared{}
	var plainUS, spannedUS float64
	replayStart := time.Now()
	for i, s := range m.samples {
		if s.path != "/query" || s.failed || s.kind == "final" || time.Since(replayStart) > r.window {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			if (i+pass)%2 == 0 {
				err = r.replayQuery(nil, 0, eng, s, plain, nil)
				plainUS += us(time.Since(t0))
			} else {
				err = r.replayQuery(tr, i+1, eng, s, spanned, &qt)
				spannedUS += us(time.Since(t0))
			}
			if err != nil {
				return nil, err
			}
		}
	}

	// Updates always replay, in order, so the engine's state follows the
	// live run's.
	var updUS []float64
	updRows := 0
	for i, s := range m.samples {
		if s.upd == nil || s.failed {
			continue
		}
		b := core.UpdateBatch{Rel: s.upd.Name, InsCols: columns(s.upd.Inserts), DelCols: columns(s.upd.Deletes)}
		id := tr.begin(i+1, 0, "core.update")
		if _, err := eng.Update(b); err != nil {
			return nil, fmt.Errorf("replay update: %w", err)
		}
		updUS = append(updUS, us(tr.end(id)))
		updRows += s.rows()
	}
	walBytes, err := dirBytes(replayWAL)
	if err != nil {
		return nil, err
	}

	// The same reads over the overlaid and the freshly compacted Edge:
	// overlayBatches seeded insert batches build the overlay first.
	orng := rand.New(rand.NewSource(subSeed(r.seed, "overlay")))
	for i := 0; i < overlayBatches; i++ {
		if _, err := eng.Update(core.UpdateBatch{Rel: "Edge", InsCols: columns(r.freshEdges(orng))}); err != nil {
			return nil, err
		}
	}
	var overlayRows int
	for _, o := range eng.Durability().Overlays {
		if o.Relation == "Edge" {
			overlayRows = o.Rows
		}
	}
	overlayUS, err := r.timeReads(tr, eng, "exec.overlay_run")
	if err != nil {
		return nil, err
	}
	var compactUS float64
	for try := 0; ; try++ {
		cs := tr.begin(0, 0, "core.compact")
		folded, err := eng.Compact("Edge")
		compactUS = us(tr.end(cs))
		if err != nil {
			return nil, err
		}
		if folded {
			break
		}
		if try == 100 {
			return nil, fmt.Errorf("compaction of the %d-row overlay did not run", overlayRows)
		}
		time.Sleep(20 * time.Millisecond) // a background compaction is still running
	}
	compactedUS, err := r.timeReads(tr, eng, "exec.compacted_run")
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	frac := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	put("datalog.parse_us", "us", per(qt.parse, qt.parses))
	put("datalog.fingerprint_us", "us", per(qt.fingerprint, qt.parses))
	put("plan.prepare_us", "us", per(qt.prep, qt.preps))
	put("plan.cache_hit_frac", "ratio", frac(st.PlanCache.Hits, st.PlanCache.Misses))
	put("exec.run_us", "us", per(qt.run, qt.runs))
	put("exec.intersections", "count", per(float64(qt.intersections), qt.runs))
	put("exec.rows_examined_per_result", "ratio", per(float64(qt.probes), int(qt.emitted)))
	put("set.word_parallel_frac", "ratio", frac(qt.wordParallel, qt.kernelCalls-qt.wordParallel))
	put("trie.build_us", "us", per(qt.build, qt.builds))
	put("trie.build_rows", "rows", per(float64(qt.buildRows), qt.builds))
	put("runtime.alloc_mb_per_query", "MB", per(float64(qt.allocBytes)/1e6, qt.runs))
	put("server.result_hit_frac", "ratio", frac(st.ResultCache.Hits, st.ResultCache.Misses))
	put("trace.overhead_frac", "ratio", spannedUS/plainUS-1)
	put("core.update_us", "us", median(updUS))
	put("wal.bytes_per_row", "B/row", per(float64(walBytes), updRows))
	put("exec.overlay_run_us", "us", overlayUS)
	put("exec.compacted_run_us", "us", compactedUS)
	put("core.compact_us", "us", compactUS)
	put("delta.overlay_rows", "rows", float64(overlayRows))
	// Too unsteady for a bound on a shared machine, so per-layer only.
	p90, rate := r.updateTails(m.samples)
	put("update_p90_ms", "ms", p90)
	put("update_rows_per_s", "rows/s", rate)
	var bytes []float64
	for _, s := range pick(m.samples, isQuery) {
		bytes = append(bytes, float64(s.respBytes))
	}
	put("server.response_bytes", "B", mean(bytes))

	res := r.report(m)
	put("failed_frac", "ratio", float64(res.Failed)/float64(res.Attempted))
	res.Metrics = out
	return res, nil
}

// replayQuery makes the direct calls of one live query's path in
// process: parse and fingerprint; prepare on a live plan-cache miss (or
// when this replay has not prepared the text yet); on a live
// result-cache miss, RunWith on a fork and trie.FromColumns over the
// output's columns. With tr nil it makes the same calls without spans
// or counters.
func (r *runner) replayQuery(tr *tracer, req int, eng *core.Engine, s *sample, preps map[string]*exec.Prepared, qt *layerTotals) error {
	root := tr.begin(req, 0, "request")
	defer tr.end(root)
	ps := tr.begin(req, root, "datalog.parse")
	prog, err := datalog.Parse(s.query.Query)
	parseUS := us(tr.end(ps))
	if err != nil {
		return err
	}
	fs := tr.begin(req, root, "datalog.fingerprint")
	_ = prog.Fingerprint()
	fpUS := us(tr.end(fs))
	if qt != nil {
		qt.parse += parseUS
		qt.fingerprint += fpUS
		qt.parses++
	}
	prep := preps[s.query.Query]
	if !s.planCached || prep == nil {
		pp := tr.begin(req, root, "plan.prepare")
		prep, err = eng.Prepare(prog)
		prepUS := us(tr.end(pp))
		if err != nil {
			return err
		}
		preps[s.query.Query] = prep
		if qt != nil {
			qt.prep += prepUS
			qt.preps++
		}
	}
	if s.resultCached {
		return nil
	}
	limit := s.query.Limit
	if limit <= 0 {
		limit = 1000 // the server's default response limit
	}
	fork := eng.DB.Fork()
	var a0 uint64
	if qt != nil {
		a0 = heapAllocs()
	}
	es := tr.begin(req, root, "exec.run")
	res, err := prep.RunWith(fork, exec.RunParams{Limit: limit + 1, Collect: qt != nil})
	runUS := us(tr.end(es))
	if err != nil {
		return err
	}
	if qt != nil {
		qt.allocBytes += heapAllocs() - a0
		qt.run += runUS
		qt.runs++
		addExecStats(qt, res.Stats)
	}
	if res.Trie.Arity == 0 {
		return nil
	}
	cols, anns := res.Trie.Columns(0)
	if !res.Trie.Annotated {
		anns = nil
	}
	bs := tr.begin(req, root, "trie.build")
	trie.FromColumns(cols, anns, res.Trie.Op, nil)
	buildUS := us(tr.end(bs))
	if qt != nil {
		qt.build += buildUS
		qt.builds++
		if len(cols) > 0 {
			qt.buildRows += int64(len(cols[0]))
		}
	}
	return nil
}

// reconcile splits the client latency of the read-back live requests
// into the server's own phases of the same requests, the server time no
// phase covers, and the client time outside the server's trace
// (loopback HTTP, request decode, reply encode and the bookkeeping after
// the trace closes). It prints both tables and fails if any share is
// negative: a phase longer than the request that contains it means the
// trace and the client clock disagree.
func (r *runner) reconcile(put func(string, string, float64), qs, ups []traced) error {
	type row struct {
		name string
		us   float64
	}
	table := func(what string, ts []traced, rows []row, prefix string) error {
		var client float64
		for _, t := range ts {
			client += us(t.s.done.Sub(t.s.sent))
		}
		fmt.Printf("reconciliation of %d live %s (mean client latency %.1f us):\n", len(ts), what, client/float64(max(len(ts), 1)))
		var sum float64
		for _, rw := range rows {
			share := 0.0
			if client > 0 {
				share = rw.us / client
			}
			if share < 0 {
				return fmt.Errorf("negative share %s%s: %.4f of client latency", prefix, rw.name, share)
			}
			sum += share
			put(prefix+rw.name, "ratio", share)
			fmt.Printf("  %-12s %12.1f us each %8.4f\n", rw.name, rw.us/float64(max(len(ts), 1)), share)
		}
		fmt.Printf("  %-12s %12s %8.4f\n", "sum", "", sum)
		return nil
	}

	var client, total, overhead float64
	phase := map[string]float64{}
	negative := 0
	for _, t := range qs {
		c := us(t.s.done.Sub(t.s.sent))
		client += c
		total += float64(t.tr.TotalUS)
		covered := 0.0
		for _, p := range queryPhases {
			d := t.tr.phaseUS(p)
			phase[p] += d
			covered += d
		}
		overhead += float64(t.tr.TotalUS) - t.tr.phaseUS("plan") - t.tr.phaseUS("execute")
		if covered > float64(t.tr.TotalUS) || float64(t.tr.TotalUS) > c {
			negative++
		}
	}
	n := float64(max(len(qs), 1))
	put("server.handle_us", "us", total/n)
	put("server.overhead_us", "us", overhead/n)
	put("net.gap_us", "us", (client-total)/n)
	qsum := phase["admission"] + phase["plan"] + phase["execute"] + phase["render"] + phase["cache_fill"]
	if err := table("queries", qs, []row{
		{"admission", phase["admission"]},
		{"plan", phase["plan"]},
		{"exec", phase["execute"]},
		{"render", phase["render"]},
		{"cache_fill", phase["cache_fill"]},
		{"server", total - qsum},
		{"unaccounted", client - total},
	}, "share."); err != nil {
		return err
	}

	var utotal, walUS, deltaUS float64
	var fsyncs, fsyncUS int64
	for _, t := range ups {
		utotal += float64(t.tr.TotalUS)
		walUS += t.tr.phaseUS("wal_append")
		deltaUS += t.tr.phaseUS("cardinality") + t.tr.phaseUS("overlay_merge")
		fsyncs += t.tr.spanAttr("wal_append", "fsyncs")
		fsyncUS += t.tr.spanAttr("wal_append", "fsync_us")
		covered := 0.0
		for _, p := range updatePhases {
			covered += t.tr.phaseUS(p)
		}
		if covered > float64(t.tr.TotalUS) || float64(t.tr.TotalUS) > us(t.s.done.Sub(t.s.sent)) {
			negative++
		}
	}
	var uclient float64
	for _, t := range ups {
		uclient += us(t.s.done.Sub(t.s.sent))
	}
	put("wal.append_us", "us", walUS/float64(max(len(ups), 1)))
	put("wal.fsync_us", "us", float64(fsyncUS)/float64(max(fsyncs, 1)))
	if err := table("updates", ups, []row{
		{"wal", walUS},
		{"delta", deltaUS},
		{"server", utotal - walUS - deltaUS},
		{"unaccounted", uclient - utotal},
	}, "share.update."); err != nil {
		return err
	}
	fmt.Printf("requests whose phases exceed their server total, or whose server total exceeds their client latency: %d of %d\n", negative, len(qs)+len(ups))
	return nil
}

// readsPerCheck is the number of point reads timed over the overlaid and
// the compacted relation; overlayBatches 64-row insert batches build the
// overlay (6400 rows, below auto-compaction on every preset used).
const (
	readsPerCheck  = 30
	overlayBatches = 100
)

// timeReads runs a fixed seeded set of uncached point reads and returns
// their mean execution time.
func (r *runner) timeReads(tr *tracer, eng *core.Engine, name string) (float64, error) {
	rng := rand.New(rand.NewSource(subSeed(r.seed, "overlay-reads")))
	next := zipfVertices(rng, r.g.N)
	var total float64
	for i := 0; i < readsPerCheck; i++ {
		q := pointQuery(pointKinds[i%len(pointKinds)], next())
		prog, err := datalog.Parse(q)
		if err != nil {
			return 0, err
		}
		prep, err := eng.Prepare(prog)
		if err != nil {
			return 0, err
		}
		id := tr.begin(0, 0, name)
		_, err = prep.RunWith(eng.DB.Fork(), exec.RunParams{Limit: r.g.N + 1})
		total += us(tr.end(id))
		if err != nil {
			return 0, err
		}
	}
	return total / readsPerCheck, nil
}

func addExecStats(qt *layerTotals, st *exec.ExecStats) {
	if st == nil {
		return
	}
	for _, b := range st.Bags {
		qt.emitted += b.Emitted
		for i := range b.Levels {
			l := &b.Levels[i]
			qt.intersections += l.Intersections
			qt.probes += l.Probes
			qt.kernelCalls += l.Kernel.Total()
			qt.wordParallel += l.Kernel.WordParallel()
		}
	}
}

func columns(rows [][2]uint32) [][]uint32 {
	if len(rows) == 0 {
		return nil
	}
	cols := [][]uint32{make([]uint32, len(rows)), make([]uint32, len(rows))}
	for i, r := range rows {
		cols[0][i], cols[1][i] = r[0], r[1]
	}
	return cols
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative heap bytes allocated by this process.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
