// Package substitute builds the substitute adjacency matrices GNNVault's
// public backbone is trained with (paper Sec. IV-C). The substitute graph
// is derived from *public node features only* — never from the private
// edges — so deploying it in the untrusted world leaks nothing.
//
// Three constructions from the paper are provided:
//
//   - KNN(k): connect each node to its k most feature-similar nodes,
//   - Cosine(τ): connect every pair with cosine similarity ≥ τ (Eq. 2),
//   - Random(fraction): an edge-count-matched Erdős–Rényi graph, the
//     misinformation baseline of Table III and Fig. 5.
package substitute

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// Kind names a substitute-graph construction.
type Kind string

// The substitute graph kinds evaluated in Table III.
const (
	KindKNN    Kind = "knn"
	KindCosine Kind = "cosine"
	KindRandom Kind = "random"
	// KindDNN means "no graph": the backbone degenerates to an MLP on
	// node features (the DNN column of Table III).
	KindDNN Kind = "dnn"
)

// KNN connects each node to its k most similar nodes by cosine similarity
// of the public features (ties broken by lower index). The result is
// symmetrised, so degrees may exceed k.
func KNN(x *mat.Matrix, k int) *graph.Graph {
	n := x.Rows
	if k < 1 {
		panic(fmt.Sprintf("substitute: KNN k=%d < 1", k))
	}
	if k >= n {
		k = n - 1
	}
	norms := rowNorms(x)
	edges := make([][]graph.Edge, workerCountFor(n))
	parallelRows(n, len(edges), func(w, lo, hi int) {
		top := make(simHeap, 0, k+1)
		for i := lo; i < hi; i++ {
			top = top[:0]
			xi := x.Row(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				s := dotSim(xi, x.Row(j), norms[i], norms[j])
				if len(top) < k {
					heap.Push(&top, simEntry{j, s})
				} else if s > top[0].sim {
					top[0] = simEntry{j, s}
					heap.Fix(&top, 0)
				}
			}
			for _, e := range top {
				edges[w] = append(edges[w], graph.Edge{U: i, V: e.node})
			}
		}
	})
	return graph.New(n, flatten(edges))
}

// Cosine connects every node pair whose feature cosine similarity is at
// least tau (Eq. 2 of the paper with F = cosine similarity).
func Cosine(x *mat.Matrix, tau float64) *graph.Graph {
	n := x.Rows
	norms := rowNorms(x)
	edges := make([][]graph.Edge, workerCountFor(n))
	parallelRows(n, len(edges), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x.Row(i)
			for j := i + 1; j < n; j++ {
				if dotSim(xi, x.Row(j), norms[i], norms[j]) >= tau {
					edges[w] = append(edges[w], graph.Edge{U: i, V: j})
				}
			}
		}
	})
	return graph.New(n, flatten(edges))
}

// CosineDensityMatched picks the threshold τ so the resulting graph has (as
// close as possible) the given number of undirected edges, then builds it.
// Table III samples each substitute graph's density to match the real
// graph; this implements that matching. Returns the graph and the chosen τ.
func CosineDensityMatched(x *mat.Matrix, wantUndirected int) (*graph.Graph, float64) {
	n := x.Rows
	norms := rowNorms(x)
	// Collect all pairwise similarities (n is laptop-scale here) and pick
	// the wantUndirected-th largest as the threshold.
	sims := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		xi := x.Row(i)
		for j := i + 1; j < n; j++ {
			sims = append(sims, dotSim(xi, x.Row(j), norms[i], norms[j]))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sims)))
	if wantUndirected < 1 {
		wantUndirected = 1
	}
	if wantUndirected > len(sims) {
		wantUndirected = len(sims)
	}
	tau := sims[wantUndirected-1]
	return Cosine(x, tau), tau
}

// Random returns an edge-count-matched random substitute graph: fraction
// scales the number of undirected edges relative to realEdges (Fig. 5's
// "% of random edges" knob; 1.0 matches the real graph's density).
func Random(n, realEdges int, fraction float64, seed int64) *graph.Graph {
	if fraction < 0 {
		panic(fmt.Sprintf("substitute: negative fraction %v", fraction))
	}
	return graph.Random(n, int(float64(realEdges)*fraction), seed)
}

// Build constructs the named substitute kind with its Table III default
// parameters: KNN uses k, cosine density-matches the real edge count, and
// random matches the real edge count. KindDNN returns nil (no graph).
func Build(kind Kind, x *mat.Matrix, k int, realUndirectedEdges int, seed int64) *graph.Graph {
	switch kind {
	case KindKNN:
		return KNN(x, k)
	case KindCosine:
		g, _ := CosineDensityMatched(x, realUndirectedEdges)
		return g
	case KindRandom:
		return Random(x.Rows, realUndirectedEdges, 1.0, seed)
	case KindDNN:
		return nil
	default:
		panic(fmt.Sprintf("substitute: unknown kind %q", kind))
	}
}

// --- internals ---

type simEntry struct {
	node int
	sim  float64
}

// simHeap is a min-heap on similarity so the root is the weakest of the
// current top-k.
type simHeap []simEntry

func (h simHeap) Len() int      { return len(h) }
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h simHeap) Less(i, j int) bool {
	if h[i].sim != h[j].sim {
		return h[i].sim < h[j].sim
	}
	return h[i].node > h[j].node // prefer lower index on ties
}
func (h *simHeap) Push(x any) { *h = append(*h, x.(simEntry)) }
func (h *simHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func rowNorms(x *mat.Matrix) []float64 {
	norms := make([]float64, x.Rows)
	for i := range norms {
		s := 0.0
		for _, v := range x.Row(i) {
			s += v * v
		}
		norms[i] = math.Sqrt(s)
	}
	return norms
}

func dotSim(a, b []float64, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	dot := 0.0
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot / (na * nb)
}

func workerCountFor(n int) int {
	w := runtime.GOMAXPROCS(0)
	if n < 128 || w < 1 {
		return 1
	}
	return w
}

func parallelRows(n, workers int, body func(w, lo, hi int)) {
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

func flatten(parts [][]graph.Edge) []graph.Edge {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]graph.Edge, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
