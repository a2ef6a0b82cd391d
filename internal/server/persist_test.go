package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"emptyheaded/internal/core"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/storage"
)

// loadTuples posts a tuple-shaped /load (no dictionary replacement, so
// only the named relation's epoch advances).
func loadTuples(t *testing.T, base, name string, tuples [][]uint32) {
	t.Helper()
	code, body := postJSON(t, base+"/load", map[string]any{
		"name": name, "arity": 2, "tuples": tuples,
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("/load %s: %d %s", name, code, body)
	}
}

func queryOnce(t *testing.T, base, q string) QueryResponse {
	t.Helper()
	var resp QueryResponse
	code, body := postJSON(t, base+"/query", map[string]any{"query": q}, &resp)
	if code != http.StatusOK {
		t.Fatalf("/query %q: %d %s", q, code, body)
	}
	return resp
}

// TestLoadInvalidatesOnlyReadRelations is the per-relation epoch
// satellite: reloading S must not evict cached results for queries that
// never read S.
func TestLoadInvalidatesOnlyReadRelations(t *testing.T) {
	_, ts := newTestService(t, Config{})
	base := ts.URL

	loadTuples(t, base, "R", [][]uint32{{1, 2}, {2, 3}, {3, 1}})
	loadTuples(t, base, "S", [][]uint32{{5, 6}, {6, 7}})

	qR := `AR(x,y) :- R(x,y).`
	qS := `AS(x,y) :- S(x,y).`

	// Prime both caches (first call computes, second serves).
	queryOnce(t, base, qR)
	if !queryOnce(t, base, qR).ResultCached {
		t.Fatal("R query not cached after priming")
	}
	queryOnce(t, base, qS)
	if !queryOnce(t, base, qS).ResultCached {
		t.Fatal("S query not cached after priming")
	}

	// Reload S: only S's epoch advances.
	loadTuples(t, base, "S", [][]uint32{{5, 6}, {7, 8}, {8, 9}})

	if resp := queryOnce(t, base, qR); !resp.ResultCached {
		t.Fatal("reloading S evicted the cached result of a query that only reads R")
	}
	respS := queryOnce(t, base, qS)
	if respS.ResultCached {
		t.Fatal("reloading S served a stale cached result for a query reading S")
	}
	if respS.Cardinality != 3 {
		t.Fatalf("S query after reload: cardinality %d, want 3", respS.Cardinality)
	}
	// And the edge-relation queries never noticed either load.
	tri := `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	queryOnce(t, base, tri)
	if !queryOnce(t, base, tri).ResultCached {
		t.Fatal("tuple loads evicted the Edge-only aggregate")
	}
}

// TestSnapshotRestoreEndpoints exercises POST /snapshot and POST
// /restore end to end: snapshot, mutate, restore, and require the
// original answers back.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{})
	base := ts.URL
	dir := filepath.Join(t.TempDir(), "snap")

	tri := `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	before := queryOnce(t, base, tri)

	var snapResp map[string]any
	code, body := postJSON(t, base+"/snapshot", map[string]any{"dir": dir}, &snapResp)
	if code != http.StatusOK {
		t.Fatalf("/snapshot: %d %s", code, body)
	}
	if int(snapResp["relations"].(float64)) < 1 {
		t.Fatalf("snapshot wrote no relations: %v", snapResp)
	}

	// Clobber the database.
	loadTuples(t, base, "Edge", [][]uint32{{1, 2}})
	if got := queryOnce(t, base, tri); got.Scalar != nil && before.Scalar != nil && *got.Scalar == *before.Scalar {
		t.Skip("clobbered graph accidentally has the same triangle count")
	}

	var restResp map[string]any
	code, body = postJSON(t, base+"/restore", map[string]any{"dir": dir}, &restResp)
	if code != http.StatusOK {
		t.Fatalf("/restore: %d %s", code, body)
	}
	after := queryOnce(t, base, tri)
	if after.Scalar == nil || before.Scalar == nil || *after.Scalar != *before.Scalar {
		t.Fatalf("triangle count after restore = %v, want %v", after.Scalar, before.Scalar)
	}

	// Restoring garbage must fail cleanly.
	code, _ = postJSON(t, base+"/restore", map[string]any{"dir": filepath.Join(t.TempDir(), "missing")}, nil)
	if code == http.StatusOK {
		t.Fatal("restore of a missing snapshot returned 200")
	}
}

func TestSnapshotWithoutDirOrDataDir(t *testing.T) {
	_, ts := newTestService(t, Config{})
	code, _ := postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("/snapshot without dir: %d, want 400", code)
	}
}

// TestDataDirDefault: with a configured DataDir, /snapshot and /restore
// bodies may omit the directory.
func TestDataDirDefault(t *testing.T) {
	dir := t.TempDir()
	eng := core.New()
	eng.LoadGraph("Edge", gen.PowerLaw(80, 500, 2.1, 7))
	s := New(eng, Config{DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, body := postJSON(t, ts.URL+"/snapshot", map[string]any{}, nil)
	if code != http.StatusOK {
		t.Fatalf("/snapshot with DataDir default: %d %s", code, body)
	}
	if !storage.Exists(dir) {
		t.Fatal("snapshot not written to the configured data dir")
	}
	code, body = postJSON(t, ts.URL+"/restore", map[string]any{}, nil)
	if code != http.StatusOK {
		t.Fatalf("/restore with DataDir default: %d %s", code, body)
	}
}

// TestColumnarWireShape: columns:true returns per-attribute arrays that
// agree with the row shape.
func TestColumnarWireShape(t *testing.T) {
	_, ts := newTestService(t, Config{})
	base := ts.URL
	q := `P2(x,z) :- Edge(x,y),Edge(y,z).`

	var rows QueryResponse
	postJSON(t, base+"/query", map[string]any{"query": q, "limit": 200}, &rows)
	var cols QueryResponse
	postJSON(t, base+"/query", map[string]any{"query": q, "limit": 200, "columns": true}, &cols)

	if len(cols.Tuples) != 0 {
		t.Fatal("columnar response carries row tuples")
	}
	if len(cols.Columns) != 2 {
		t.Fatalf("columnar response has %d columns, want 2", len(cols.Columns))
	}
	if len(cols.Columns[0]) != len(rows.Tuples) {
		t.Fatalf("columnar rows %d != tuple rows %d", len(cols.Columns[0]), len(rows.Tuples))
	}
	for i, row := range rows.Tuples {
		if cols.Columns[0][i] != row[0] || cols.Columns[1][i] != row[1] {
			t.Fatalf("row %d: columns (%d,%d) != tuple %v", i, cols.Columns[0][i], cols.Columns[1][i], row)
		}
	}
	// Both shapes cache independently.
	var again QueryResponse
	postJSON(t, base+"/query", map[string]any{"query": q, "limit": 200, "columns": true}, &again)
	if !again.ResultCached {
		t.Fatal("columnar response not served from cache on repeat")
	}
}

// TestLoadRacingRestoreNever500s: /load and /restore run concurrently
// while the restored snapshot lacks the loaded relation. A restore may
// replace the relation between the load's install and its reply (the
// load then answers 409), but no response is a 500.
func TestLoadRacingRestoreNever500s(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	dir := t.TempDir()
	if code, body := postJSON(t, ts.URL+"/snapshot", SnapshotRequest{Dir: dir}, nil); code != http.StatusOK {
		t.Fatalf("/snapshot: %d %s", code, body)
	}
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan string, 2*rounds)
	run := func(path, body string, ok ...int) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			code, resp := post(path, body)
			if !slices.Contains(ok, code) {
				errs <- fmt.Sprintf("%s: %d %s", path, code, resp)
			}
		}
	}
	wg.Add(2)
	go run("/load", `{"name":"L","arity":2,"tuples":[[1,2],[2,3]]}`, http.StatusOK, http.StatusConflict)
	go run("/restore", fmt.Sprintf(`{"dir":%q}`, dir), http.StatusOK)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
