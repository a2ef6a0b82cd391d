package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"emptyheaded"
	"emptyheaded/internal/baseline"
	"emptyheaded/internal/datasets"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
)

// Query texts. Count-workload patterns run on Pruned, the degree-ordered
// src>dst orientation of the graph (§5.2.1), so each triangle or 4-clique
// is found once; everything else reads the symmetric Edge relation.
const (
	qTC       = `TC(;w:long) :- Pruned(x,y),Pruned(y,z),Pruned(x,z); w=<<COUNT(*)>>.`
	qK4       = `K4(;c:long) :- Pruned(x,y),Pruned(y,z),Pruned(x,z),Pruned(x,w),Pruned(y,w),Pruned(z,w); c=<<COUNT(*)>>.`
	qPageRank = `N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.
PageRank(x;y:float) :- Edge(x,z); y=1/N.
PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`
	qTriangles     = `T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).`
	qTrianglesFull = qTriangles + "\n" + `C(;w:long) :- T(x,y,z); w=<<COUNT(*)>>.`
	qEdgeCount     = `E(;c:long) :- Edge(x,y); c=<<COUNT(*)>>.`
)

func qSSSP(start uint32) string {
	return fmt.Sprintf("SSSP(x;y:int) :- Edge(\"%d\",x); y=1.\nSSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.", start)
}

// Point queries: single-vertex selections. The constant is part of the
// fingerprint, so each new vertex is a plan-cache and result-cache miss.
var pointKinds = []string{"nbr", "hop2", "triv"}

func pointQuery(kind string, v uint32) string {
	switch kind {
	case "nbr":
		return fmt.Sprintf(`N(y) :- Edge("%d",y).`, v)
	case "hop2":
		return fmt.Sprintf(`H(;c:long) :- Edge("%d",y),Edge(y,z); c=<<COUNT(*)>>.`, v)
	default:
		return fmt.Sprintf(`V(;c:long) :- Edge("%d",y),Edge(y,z),Edge("%d",z); c=<<COUNT(*)>>.`, v, v)
	}
}

// subSeed derives an independent stream seed from the workload seed.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// genGraph draws the workload's graph at the named preset's size and
// exponent; the preset's own fixed seed is replaced by one derived from
// the workload seed.
func genGraph(preset string, seed int64) (*graph.Graph, error) {
	p, ok := datasets.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset preset %q", preset)
	}
	return gen.PowerLaw(p.Nodes, p.UndirEdges, p.Exponent, subSeed(seed, "graph")), nil
}

// zipfVertices draws start vertices Zipf-style: low ids (the heaviest
// Chung-Lu vertices) repeat, the long tail rarely does.
func zipfVertices(rng *rand.Rand, n int) func() uint32 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	return func() uint32 { return uint32(z.Uint64()) }
}

// zipfS is the Zipf exponent of point start vertices.
const zipfS = 1.1

// adjacency oracles over a static symmetric graph.

func hasEdge(g *graph.Graph, u, v uint32) bool {
	if int(u) >= g.N {
		return false
	}
	ns := g.Adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

func mergeCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// pointExpect is the oracle answer of a point query on a static graph:
// the neighbour list for nbr, a count otherwise.
func pointExpect(g *graph.Graph, kind string, v uint32) ([]uint32, int64) {
	ns := g.Adj[v]
	switch kind {
	case "nbr":
		return ns, int64(len(ns))
	case "hop2":
		var n int64
		for _, y := range ns {
			n += int64(len(g.Adj[y]))
		}
		return nil, n
	default:
		var n int64
		for _, y := range ns {
			n += int64(mergeCount(ns, g.Adj[y]))
		}
		return nil, n
	}
}

// orderedTriangles counts ordered triangle bindings (6 per triangle) of a
// symmetric graph with the low-level CSR kernel.
func orderedTriangles(g *graph.Graph) int64 {
	return 6 * baseline.LowLevelTriangleCount(g.Reorder(graph.OrderDegree, 0).Prune(), 0)
}

// k4Oracle counts 4-cliques of the pruned graph in process with uint-only
// layouts and merge-only intersections: no bitset, composite or
// word-parallel route that the served engine might take.
func k4Oracle(pruned *graph.Graph) (float64, error) {
	eng := emptyheaded.New(emptyheaded.WithUintLayout(), emptyheaded.WithMergeOnly())
	eng.LoadGraph("Pruned", pruned)
	res, err := eng.Run(qK4)
	if err != nil {
		return 0, err
	}
	return res.Scalar(), nil
}
