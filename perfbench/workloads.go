package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"emptyheaded/internal/baseline"
)

// count: the paper's analytic queries over a dense, skewed graph. The
// join loop nest does nearly all the work. A cycle sends SSSP and
// PageRank once, the 4-clique count twice and the triangle count six
// times. Triangle counts are then 60% of the samples, so the median is a
// triangle count's latency whatever the order of the four queries'
// latency bands; the 4-clique count, the slowest query, is the top 20%,
// so p90 is about the median 4-clique latency and p99 a slow one.
const (
	k4PerCycle = 2
	tcPerCycle = 6
)

var countWorkload = &workload{
	name: "count", preset: "gplus", blocks: 1,
	setup: func(r *runner) error {
		tc := float64(baseline.LowLevelTriangleCount(r.pruned, 0))
		k4, err := k4Oracle(r.pruned)
		if err != nil {
			return fmt.Errorf("4-clique oracle: %w", err)
		}
		pr := baseline.LowLevelPageRank(r.g, 5, 0)
		start := r.g.MaxDegreeNode()
		dist := baseline.LowLevelSSSP(r.g, start)
		active := 0
		for _, ns := range r.g.Adj {
			if len(ns) > 0 {
				active++
			}
		}
		scalar := func(want float64) func(*sample, *queryResp) error {
			return func(_ *sample, q *queryResp) error { return expectScalar(q, want) }
		}
		tcSpec := qspec{"tc", queryReq{Query: qTC, NoCache: true}, scalar(tc)}
		specs := []qspec{
			{"sssp", queryReq{Query: qSSSP(start), NoCache: true, Limit: r.g.N}, func(_ *sample, q *queryResp) error {
				return checkSSSP(q, dist, start)
			}},
			{"pagerank", queryReq{Query: qPageRank, NoCache: true, Limit: r.g.N}, func(_ *sample, q *queryResp) error {
				return checkPageRank(q, pr, active)
			}},
		}
		for i := 0; i < k4PerCycle; i++ {
			specs = append(specs, qspec{"k4", queryReq{Query: qK4, NoCache: true}, scalar(k4)})
		}
		for i := 0; i < tcPerCycle; i++ {
			specs = append(specs, tcSpec)
		}
		r.state = specs
		return nil
	},
	drive:  func(r *runner) { r.closedLoop(r.state.([]qspec)) },
	finish: func(r *runner) { r.checkEdgeCount(r.liveRows) },
}

// pageRankTol is the relative tolerance against the CSR PageRank: the
// two sum the same terms in different orders.
const pageRankTol = 1e-9

func checkPageRank(q *queryResp, want []float64, active int) error {
	rows := q.rows()
	if q.Truncated || q.Cardinality != active || len(rows) != active || len(q.Anns) != active {
		return fmt.Errorf("%d ranks (%d rows, truncated=%v), want %d", q.Cardinality, len(rows), q.Truncated, active)
	}
	for i, row := range rows {
		v := row[0]
		if v < 0 || int(v) >= len(want) {
			return fmt.Errorf("rank for unknown vertex %d", v)
		}
		if math.Abs(q.Anns[i]-want[v]) > pageRankTol*math.Abs(want[v]) {
			return fmt.Errorf("rank(%d)=%v, want %v", v, q.Anns[i], want[v])
		}
	}
	return nil
}

// checkSSSP compares BFS distances; the start vertex may or may not
// appear (it is reached again through its own neighbours).
func checkSSSP(q *queryResp, dist []int32, start uint32) error {
	rows := q.rows()
	if q.Truncated || len(rows) != len(q.Anns) {
		return fmt.Errorf("truncated or misaligned reply")
	}
	reached := 0
	for v, d := range dist {
		if d > 0 && uint32(v) != start {
			reached++
		}
	}
	seen := 0
	for i, row := range rows {
		v := row[0]
		if v < 0 || int(v) >= len(dist) {
			return fmt.Errorf("distance for unknown vertex %d", v)
		}
		if uint32(v) == start {
			continue
		}
		if float64(dist[v]) != q.Anns[i] {
			return fmt.Errorf("dist(%d)=%v, want %d", v, q.Anns[i], dist[v])
		}
		seen++
	}
	if seen != reached {
		return fmt.Errorf("%d vertices reached, want %d", seen, reached)
	}
	return nil
}

// list: triangle listings, where the output trie build, per-row emit
// and render dominate the same join a count runs.
const listLimit = 100000

var listWorkload = &workload{
	name: "list", preset: "higgs", blocks: 1,
	setup: func(r *runner) error {
		total := orderedTriangles(r.g)
		rowsWant := total
		if rowsWant > listLimit {
			rowsWant = listLimit
		}
		check := func(_ *sample, q *queryResp) error {
			rows := q.rows()
			if int64(len(rows)) != rowsWant {
				return fmt.Errorf("%d rows, want min(limit %d, total %d)", len(rows), listLimit, total)
			}
			if q.Truncated != (total > listLimit) {
				return fmt.Errorf("truncated=%v with %d of %d rows", q.Truncated, len(rows), total)
			}
			for i, row := range rows {
				x, y, z := uint32(row[0]), uint32(row[1]), uint32(row[2])
				if !hasEdge(r.g, x, y) || !hasEdge(r.g, y, z) || !hasEdge(r.g, x, z) {
					return fmt.Errorf("row %v is not a triangle", row)
				}
				if i > 0 && !lexLess(rows[i-1], row) {
					return fmt.Errorf("rows %v, %v out of order or repeated", rows[i-1], row)
				}
			}
			return nil
		}
		r.state = []qspec{
			{"full", queryReq{Query: qTrianglesFull, NoCache: true}, func(_ *sample, q *queryResp) error {
				return expectScalar(q, float64(total))
			}},
			{"rows", queryReq{Query: qTriangles, NoCache: true, Limit: listLimit}, check},
			{"columns", queryReq{Query: qTriangles, NoCache: true, Limit: listLimit, Columns: true}, check},
		}
		return nil
	},
	drive:  func(r *runner) { r.closedLoop(r.state.([]qspec)) },
	finish: func(r *runner) { r.checkEdgeCount(r.liveRows) },
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// point: single-vertex selections from one closed-loop client with the
// caches on, where the per-request path (HTTP, decode, parse,
// fingerprint, plan, caches, render) dominates microsecond execution.
// Its thousands of requests are split into pointBlocks blocks for the
// query metrics.
const pointBlocks = 8

type pointState struct {
	memo map[pointKey]int64
}

var pointWorkload = &workload{
	name: "point", preset: "higgs", blocks: pointBlocks,
	setup: func(r *runner) error {
		r.state = &pointState{memo: map[pointKey]int64{}}
		return nil
	},
	drive: func(r *runner) {
		st := r.state.(*pointState)
		rng := rand.New(rand.NewSource(subSeed(r.seed, "point")))
		next := zipfVertices(rng, r.g.N)
		start := time.Now()
		r.warmEnd = start.Add(warmup)
		for time.Since(start) < warmup+r.window {
			v, kind := next(), pointKinds[rng.Intn(len(pointKinds))]
			r.query(kind, &queryReq{Query: pointQuery(kind, v), Limit: r.g.N}, func(_ *sample, q *queryResp) error {
				ns, n := st.expect(r, kind, v)
				if err := checkPoint(q, kind, ns, n); err != nil {
					return fmt.Errorf("%s: %w", pointQuery(kind, v), err)
				}
				return nil
			})
		}
	},
	finish: func(r *runner) { r.checkEdgeCount(r.liveRows) },
}

type pointKey struct {
	kind string
	v    uint32
}

func (st *pointState) expect(r *runner, kind string, v uint32) ([]uint32, int64) {
	if kind == "nbr" {
		return pointExpect(r.g, kind, v)
	}
	key := pointKey{kind, v}
	n, ok := st.memo[key]
	if !ok {
		_, n = pointExpect(r.g, kind, v)
		st.memo[key] = n
	}
	return nil, n
}

// checkPoint compares a point-query reply with the oracle's neighbour
// list (nbr) or count (hop2, triv).
func checkPoint(q *queryResp, kind string, ns []uint32, n int64) error {
	if kind != "nbr" {
		return expectScalar(q, float64(n))
	}
	rows := q.rows()
	if q.Truncated || q.Cardinality != len(ns) || len(rows) != len(ns) {
		return fmt.Errorf("%d neighbours (%d rows), want %d", q.Cardinality, len(rows), len(ns))
	}
	for i, row := range rows {
		if len(row) != 1 || row[0] != int64(ns[i]) {
			return fmt.Errorf("neighbour %d is %v, want %d", i, row, ns[i])
		}
	}
	return nil
}
