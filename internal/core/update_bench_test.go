package core

import (
	"math/rand"
	"testing"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gate"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/wal"
)

// benchUpdateEngine loads the standard 256k-edge power-law graph.
func benchUpdateEngine(tb testing.TB) *Engine {
	tb.Helper()
	eng := New()
	eng.LoadGraph("Edge", gen.PowerLaw(60000, 262144, 2.2, 3))
	return eng
}

func randomBatch(rng *rand.Rand, rows, keySpace int) [][]uint32 {
	cols := [][]uint32{make([]uint32, rows), make([]uint32, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = uint32(rng.Intn(keySpace))
		cols[1][i] = uint32(rng.Intn(keySpace))
	}
	return cols
}

// BenchmarkUpdateApply256k measures one streaming update batch (128
// random edges) against a 256k-edge base: mini-trie build + overlay
// fold + path-copying merge + install.
func BenchmarkUpdateApply256k(b *testing.B) {
	eng := benchUpdateEngine(b)
	eng.SetAutoCompact(0, 0) // measure the update path, not compaction
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: randomBatch(rng, 128, 60000)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact256k measures folding a ~2.5k-row overlay into a
// fresh 256k-edge base trie.
func BenchmarkCompact256k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchUpdateEngine(b)
		eng.SetAutoCompact(0, 0)
		for j := 0; j < 20; j++ {
			if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: randomBatch(rng, 128, 60000)}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := eng.Compact("Edge"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay100k measures boot replay of 100k update rows
// (1000 records × 100 rows) into a fresh engine — the recovery-time
// number for the durability story.
func BenchmarkWALReplay100k(b *testing.B) {
	dir := b.TempDir()
	writer := New()
	if _, err := writer.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncOff}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if _, err := writer.Update(UpdateBatch{Rel: "Edge", InsCols: randomBatch(rng, 100, 1<<20)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := writer.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New()
		st, err := eng.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if st.Records != 1000 {
			b.Fatalf("replayed %d records", st.Records)
		}
		b.StopTimer()
		if err := eng.CloseWAL(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

const triangleListing = `Tri(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).`

// overlayEngines builds the two sides of the overlay-overhead
// comparison: the same 256k-edge base plus a ~1% overlay, once live
// (base + delta overlay) and once compacted.
func overlayEngine(tb testing.TB, compact bool) *Engine {
	tb.Helper()
	eng := benchUpdateEngine(tb)
	eng.SetAutoCompact(0, 0)
	rng := rand.New(rand.NewSource(17))
	// ~2.6k overlay rows (1% of 262k): 16 batches of 128 inserts + a
	// few tombstones aimed at real edges.
	g, _ := eng.Graph("Edge")
	for i := 0; i < 16; i++ {
		batch := UpdateBatch{Rel: "Edge", InsCols: randomBatch(rng, 128, 60000)}
		if i%4 == 0 {
			var src, dst []uint32
			for j := 0; j < 32; j++ {
				v := rng.Intn(len(g.Adj))
				for len(g.Adj[v]) == 0 {
					v = rng.Intn(len(g.Adj))
				}
				src = append(src, uint32(v))
				dst = append(dst, g.Adj[v][rng.Intn(len(g.Adj[v]))])
			}
			batch.DelCols = [][]uint32{src, dst}
		}
		if _, err := eng.Update(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if compact {
		if did, err := eng.Compact("Edge"); err != nil || !did {
			tb.Fatalf("compact: did=%v err=%v", did, err)
		}
	}
	return eng
}

func runTriangleListing(tb testing.TB, eng *Engine) int {
	tb.Helper()
	prog, err := datalog.Parse(triangleListing)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := eng.RunIsolated(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Trie.Cardinality()
}

// BenchmarkTriangleOverlay1pct times triangle listing over the merged
// base+overlay view (≤1% uncompacted overlay).
func BenchmarkTriangleOverlay1pct(b *testing.B) {
	eng := overlayEngine(b, false)
	runTriangleListing(b, eng) // warm permuted indexes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTriangleListing(b, eng)
	}
}

// BenchmarkTriangleCompacted times the same listing after compaction —
// the baseline the overlay must stay within 25% of.
func BenchmarkTriangleCompacted(b *testing.B) {
	eng := overlayEngine(b, true)
	runTriangleListing(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTriangleListing(b, eng)
	}
}

// TestOverlayQueryOverheadGate is the acceptance gate: triangle listing
// over a 256k-edge base with a ≤1% uncompacted overlay must regress
// less than 25% versus the compacted trie, and compaction must restore
// baseline performance (the compacted run IS the baseline — it goes
// through the same engine after Compact).
func TestOverlayQueryOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test, skipped with -short")
	}
	overlayEng := overlayEngine(t, false)
	compactEng := overlayEngine(t, true)

	// Same data on both sides, by construction.
	wantCard := runTriangleListing(t, compactEng)
	if got := runTriangleListing(t, overlayEng); got != wantCard {
		t.Fatalf("overlay listing %d triangles, compacted %d", got, wantCard)
	}

	timed := func(eng *Engine) func() time.Duration {
		return func() time.Duration {
			t0 := time.Now()
			runTriangleListing(t, eng)
			return time.Since(t0)
		}
	}
	g := gate.Timing{
		Rounds:   5,
		Attempts: 1,
		Base:     timed(compactEng),
		Cand:     timed(overlayEng),
		Logf:     func(f string, args ...any) { t.Logf("triangle listing, 1%% overlay vs compacted: "+f, args...) },
	}
	if o := g.Overhead(0.25); o > 0.25 {
		t.Fatalf("overlay listing regresses %.1f%% (≥25%%) vs compacted", o*100)
	}
}
