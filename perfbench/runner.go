package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/graph"
)

// workload is one traffic mix. drive sends the measured stream through
// r.query / r.update until r.window has passed; finish runs the
// end-of-run answer checks.
type workload struct {
	name   string
	preset string
	// blocks is the number of consecutive blocks the measured queries
	// are split into; each query metric is the median over the blocks
	// of the block's own value (see blockMedian).
	blocks int
	// setup computes the oracles and the request stream from the
	// workload seed.
	setup  func(r *runner) error
	drive  func(r *runner)
	finish func(r *runner)
}

var workloads = map[string]*workload{
	"count": countWorkload,
	"list":  listWorkload,
	"point": pointWorkload,
}

// bootsPerRun is how many times set-up boots the server; setup_s is the
// median of these boots.
const bootsPerRun = 11

type runner struct {
	w      *workload
	seed   int64
	window time.Duration
	bin    string
	dir    string

	g       *graph.Graph
	pruned  *graph.Graph // count only: degree-ordered src>dst orientation
	dataDir string
	walDir  string
	// traceRing, when set, raises the server's trace ring so the traced
	// run can read back the trace of every request it sent.
	traceRing int
	// liveRows is the served edge-row count the run must end with.
	liveRows int64
	// probeCycle is the number of update-probe batches until the
	// server's auto-compaction folded the overlay (0 = none seen).
	probeCycle int

	srv *serverProc
	cl  *client
	rec *recorder
	// state is the workload's oracle and stream state.
	state any

	// warmEnd ends the warm-up: requests sent before it are checked and
	// counted as attempted but enter no latency or rate metric.
	warmEnd time.Time

	// seq numbers /query requests in send order. refuseAt and corruptAt
	// (smoke mode) name one query that is sent malformed, so the server
	// refuses it, and one whose decoded answer is corrupted before it is
	// checked.
	seq                 int64
	refuseAt, corruptAt int64
}

func newRunner(w *workload, seed int64, seconds int, bin, dir string) (*runner, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r := &runner{
		w: w, seed: seed, window: time.Duration(seconds) * time.Second, bin: bin, dir: dir,
		dataDir: filepath.Join(dir, "data"), walDir: filepath.Join(dir, "wal"),
		rec: &recorder{},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, err := genGraph(w.preset, seed)
	if err != nil {
		return nil, err
	}
	r.g = g
	r.liveRows = g.Edges()
	eng := core.New()
	eng.LoadGraph("Edge", g)
	if w.name == "count" {
		r.pruned = g.Reorder(graph.OrderDegree, 0).Prune()
		eng.LoadGraph("Pruned", r.pruned)
	}
	if _, err := eng.Snapshot(r.dataDir); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	t1 := time.Now()
	if err := w.setup(r); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: graph+snapshot %.2fs, oracles %.2fs\n", w.name, seed, t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	return r, nil
}

// serverArgs: WAL at the default -fsync always with default
// auto-compaction, restoring the generated snapshot on boot.
func (r *runner) serverArgs() []string {
	args := []string{"-data-dir", r.dataDir, "-wal-dir", r.walDir, "-fsync", "always"}
	if r.traceRing > 0 {
		args = append(args, "-trace-ring", fmt.Sprint(r.traceRing))
	}
	return args
}

// boot starts the server n times and keeps the last one running; it
// returns the median time to ready.
func (r *runner) boot(n int) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		p, d, err := startServer(r.bin, r.serverArgs(), filepath.Join(r.dir, "server.log"))
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
		if i < n-1 {
			p.stop()
			continue
		}
		r.srv = p
		r.cl = newClient(p.base)
	}
	return median(ds), nil
}

func (r *runner) shutdown() {
	if r.cl != nil {
		r.cl.close()
	}
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}
}

// query sends one /query request. A transport error or non-200 reply
// fails the sample at once; a 200 reply is held and checked after the
// measured window (see measure), so decoding and the oracle never compete
// with the server for the CPUs while latency is measured.
func (r *runner) query(kind string, q *queryReq, check func(*sample, *queryResp) error) *sample {
	s := &sample{kind: kind, path: "/query", query: q}
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a queryReq always marshals
	}
	r.seq++
	n := r.seq
	if n == r.refuseAt {
		body = []byte(`{"query":`)
	}
	s.sent = time.Now()
	status, b, err := r.cl.post("/query", body)
	s.done = time.Now()
	s.respBytes = len(b)
	why := ""
	switch {
	case err != nil:
		why = "transport: " + err.Error()
	case status != 200:
		why = fmt.Sprintf("status %d: %.200s", status, bytes.TrimSpace(b))
	}
	r.rec.add(s, why)
	if why == "" {
		a := &answer{s: s, body: b, corrupt: n == r.corruptAt, check: check}
		r.rec.hold(a)
	}
	return s
}

// answer is a 200 reply awaiting its check.
type answer struct {
	s       *sample
	body    []byte
	corrupt bool // smoke mode: corrupt the decoded answer first
	check   func(*sample, *queryResp) error
}

// judgeHeld checks the held replies and releases their bodies, then
// collects the garbage so the load generator's heap does not compete
// with the update probe that follows.
func (r *runner) judgeHeld() {
	for _, a := range r.rec.takeHeld() {
		r.judge(a)
	}
	runtime.GC()
}

func (r *runner) judge(a *answer) {
	var qr queryResp
	if err := json.Unmarshal(a.body, &qr); err != nil {
		r.rec.fail(a.s, "decode: "+err.Error())
		return
	}
	a.s.planCached, a.s.resultCached, a.s.traceID = qr.PlanCached, qr.ResultCached, qr.TraceID
	if a.corrupt {
		corrupt(&qr)
	}
	if err := a.check(a.s, &qr); err != nil {
		r.rec.fail(a.s, "wrong answer: "+err.Error())
	}
}

// update sends one /update batch and checks the acknowledgement.
func (r *runner) update(u *updateReq) *sample {
	s := &sample{kind: "update", path: "/update", upd: u}
	body, err := json.Marshal(u)
	if err != nil {
		panic(err) // an updateReq always marshals
	}
	s.sent = time.Now()
	status, b, err := r.cl.post("/update", body)
	s.done = time.Now()
	s.respBytes = len(b)
	why := ""
	switch {
	case err != nil:
		why = "transport: " + err.Error()
	case status != 200:
		why = fmt.Sprintf("status %d: %.200s", status, bytes.TrimSpace(b))
	default:
		var ur updateResp
		if err := json.Unmarshal(b, &ur); err != nil {
			why = "decode: " + err.Error()
			break
		}
		s.overlayRows, s.traceID = ur.OverlayRows, ur.TraceID
		if ur.Inserted != len(u.Inserts) || ur.Deleted != len(u.Deletes) {
			why = fmt.Sprintf("acknowledged %d/%d rows, sent %d/%d", ur.Inserted, ur.Deleted, len(u.Inserts), len(u.Deletes))
		}
	}
	r.rec.add(s, why)
	return s
}

// corrupt flips one value of a decoded answer (smoke mode).
func corrupt(q *queryResp) {
	switch {
	case q.Scalar != nil:
		v := *q.Scalar + 1
		q.Scalar = &v
	case len(q.Tuples) > 0 && len(q.Tuples[0]) > 0:
		q.Tuples[0][0]++
	case len(q.Columns) > 0 && len(q.Columns[0]) > 0:
		q.Columns[0][0]++
	default:
		q.Cardinality++
	}
}

// closedLoop sends specs round-robin from one client, each after the
// previous reply. The first cycle warms up; measuring stops at the first
// cycle boundary after the window.
func (r *runner) closedLoop(specs []qspec) {
	cycle := func() {
		for _, sp := range specs {
			q := sp.req
			r.query(sp.kind, &q, sp.check)
		}
	}
	cycle()
	r.warmEnd = time.Now()
	for time.Since(r.warmEnd) < r.window {
		cycle()
	}
}

// warmup is the unmeasured start of the point stream: first-seen
// plans, cold caches and connection set-up.
const warmup = time.Second

// qspec is one query of a workload mix with its answer check.
type qspec struct {
	kind  string
	req   queryReq
	check func(*sample, *queryResp) error
}

// probeMaxBatches caps the update probe should the server never
// auto-compact.
const probeMaxBatches = 4000

// probeUpdates runs the update probe that ends every run: a closed loop
// of 64-row /update batches that alternately insert fresh undirected
// edges and delete them again, so the relation ends where it started.
// Deleted overlay inserts stay in the overlay as tombstones, so the
// overlay grows by a batch every two batches. The probe starts from the
// empty overlay the boot left and stops after the pair during which the
// server's default auto-compaction folded the overlay into the base (a
// reply reports a smaller overlay than the one before by more than a
// batch). Every batch is measured, so the probe times one whole
// compaction cycle: every overlay size up to the threshold and the
// batches that run beside the background compaction.
func (r *runner) probeUpdates() {
	rng := rand.New(rand.NewSource(subSeed(r.seed, "probe")))
	prev := 0
	for n := 0; n < probeMaxBatches; n += 2 {
		rows := r.freshEdges(rng)
		folded := false
		for _, u := range []*updateReq{{Name: "Edge", Inserts: rows}, {Name: "Edge", Deletes: rows}} {
			s := r.update(u)
			if s.failed {
				return // the final edge count reports the divergence
			}
			folded = folded || s.overlayRows < prev-len(rows)
			prev = s.overlayRows
		}
		if folded {
			r.probeCycle = n + 2
			return
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: no auto-compaction within %d probe batches\n", probeMaxBatches)
}

// freshEdges draws 32 uniform undirected edges absent from the generated
// graph, as 64 rows (both directions).
func (r *runner) freshEdges(rng *rand.Rand) [][2]uint32 {
	var rows [][2]uint32
	seen := map[[2]uint32]bool{}
	for len(rows) < 64 {
		u, v := uint32(rng.Intn(r.g.N)), uint32(rng.Intn(r.g.N))
		if u == v || hasEdge(r.g, u, v) || seen[[2]uint32{u, v}] {
			continue
		}
		seen[[2]uint32{u, v}], seen[[2]uint32{v, u}] = true, true
		rows = append(rows, [2]uint32{u, v}, [2]uint32{v, u})
	}
	return rows
}

// checkEdgeCount asserts the served Edge cardinality after the run.
func (r *runner) checkEdgeCount(want int64) {
	r.query("final", &queryReq{Query: qEdgeCount, NoCache: true}, func(_ *sample, q *queryResp) error {
		return expectScalar(q, float64(want))
	})
}

func expectScalar(q *queryResp, want float64) error {
	got := 0.0
	if q.Scalar != nil {
		got = *q.Scalar
	} else if q.Cardinality != 0 {
		return fmt.Errorf("no scalar in a %d-row reply", q.Cardinality)
	}
	if got != want {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// endToEnd boots the server, drives the measured window, runs the update
// probe and final checks, and computes the end-to-end metrics.
func (r *runner) endToEnd() (*result, error) {
	setup, err := r.boot(bootsPerRun)
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	m, err := r.measure()
	if err != nil {
		return nil, err
	}
	m.setup = setup
	return r.report(m), nil
}

// measurement is what one live run observed.
type measurement struct {
	setup     float64
	samples   []*sample
	failures  []string
	rssMiB    float64
	diskBytes int64
}

// measure runs the live part shared by the untraced and traced runs.
func (r *runner) measure() (*measurement, error) {
	m := &measurement{}
	// The load generator's garbage collector stays off while the queries
	// are measured, so it does not compete with the server for the CPUs;
	// the held replies are collected after the window (judgeHeld).
	gc := debug.SetGCPercent(-1)
	r.w.drive(r)
	debug.SetGCPercent(gc)
	samples, _ := r.rec.snapshot()
	for _, s := range samples {
		s.warm = s.sent.Before(r.warmEnd)
	}
	r.judgeHeld()
	r.probeUpdates()
	r.w.finish(r)
	r.judgeHeld()
	var err error
	if m.rssMiB, err = r.srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if m.diskBytes, err = dirBytes(r.dataDir, r.walDir); err != nil {
		return nil, err
	}
	m.samples, m.failures = r.rec.snapshot()
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", f)
	}
	return m, nil
}

// latencies returns the client latencies in ms of ss. A failed request
// counts as missing every latency limit: it enters at the full window
// length.
func latencies(ss []*sample, window time.Duration) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.failed {
			out = append(out, float64(window)/1e6)
			continue
		}
		out = append(out, float64(s.done.Sub(s.sent))/1e6)
	}
	return out
}

func isQuery(s *sample) bool  { return s.path == "/query" && s.kind != "final" && !s.warm }
func isUpdate(s *sample) bool { return s.path == "/update" && !s.warm }

func pick(ss []*sample, keep func(*sample) bool) []*sample {
	var out []*sample
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// blockMedian splits ss, in send order, into n consecutive blocks and
// returns the median over the blocks of f(block). A host stall that
// covers a few blocks then does not move the metric.
func blockMedian(ss []*sample, n int, f func([]*sample) float64) float64 {
	var vs []float64
	for b := 0; b < n; b++ {
		if blk := ss[b*len(ss)/n : (b+1)*len(ss)/n]; len(blk) > 0 {
			vs = append(vs, f(blk))
		}
	}
	return median(vs)
}

// goodRate is the block's completed, correct requests per second of its
// wall time.
func goodRate(blk []*sample) float64 {
	good := 0
	for _, s := range blk {
		if !s.failed {
			good++
		}
	}
	return float64(good) / blk[len(blk)-1].done.Sub(blk[0].sent).Seconds()
}

func (r *runner) report(m *measurement) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, s := range m.samples {
		res.Attempted++
		if s.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	qs := pick(m.samples, isQuery)
	pct := func(ss []*sample, blocks int, p float64) float64 {
		return blockMedian(ss, blocks, func(blk []*sample) float64 { return percentile(latencies(blk, r.window), p) })
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", m.setup)
	put("query_p50_ms", "ms", pct(qs, r.w.blocks, 50))
	put("query_p90_ms", "ms", pct(qs, r.w.blocks, 90))
	put("query_p99_ms", "ms", pct(qs, r.w.blocks, 99))
	put("query_qps", "1/s", blockMedian(qs, r.w.blocks, goodRate))
	put("update_p50_ms", "ms", pct(pick(m.samples, isUpdate), updateBlocks, 50))
	put("peak_rss_mb", "MiB", m.rssMiB)
	put("disk_bytes_per_row", "B/row", float64(m.diskBytes)/float64(r.liveRows))
	ql := latencies(qs[:len(qs)/r.w.blocks], r.window)
	fmt.Printf("samples: setup_s=%d query=%d in %d blocks (p99 of the first block has %d beyond it) update=%d in %d blocks (one compaction cycle: %d batches) attempted=%d failed=%d failed_frac=%.4f\n",
		bootsPerRun, len(qs), r.w.blocks, beyond(ql, 99), len(pick(m.samples, isUpdate)), updateBlocks, r.probeCycle, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("per-kind query p50 ms: %s\n", perKind(m.samples))
	return res
}

// updateBlocks is the number of consecutive blocks the update probe's
// batches are split into for the update metrics.
const updateBlocks = 8

// updateTails returns the update p90 latency and the acknowledged rows
// per second of the update probe, each the median of its per-block
// values. A block's rate counts its wall time.
func (r *runner) updateTails(ss []*sample) (p90, rowsPerS float64) {
	ups := pick(ss, isUpdate)
	p90 = blockMedian(ups, updateBlocks, func(blk []*sample) float64 { return percentile(latencies(blk, r.window), 90) })
	rowsPerS = blockMedian(ups, updateBlocks, func(blk []*sample) float64 {
		rows := 0
		for _, s := range blk {
			if !s.failed {
				rows += s.rows()
			}
		}
		return float64(rows) / blk[len(blk)-1].done.Sub(blk[0].sent).Seconds()
	})
	return p90, rowsPerS
}

// beyond counts samples above the p-th percentile.
func beyond(xs []float64, p float64) int {
	t := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func perKind(ss []*sample) string {
	by := map[string][]float64{}
	for _, s := range ss {
		if isQuery(s) && !s.failed {
			by[s.kind] = append(by[s.kind], float64(s.done.Sub(s.sent))/1e6)
		}
	}
	var keys []string
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.3f(n=%d) ", k, median(by[k]), len(by[k]))
	}
	return b.String()
}
