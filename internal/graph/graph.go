// Package graph provides the sparse graph substrate for GNNVault: COO edge
// lists, CSR adjacency, GCN-style symmetric normalisation, sparse×dense
// products with hand-derived backward passes, graph statistics, and binary
// serialisation of the private adjacency in the Coordinate (COO) format the
// paper seals inside the enclave.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a single directed edge (u → v). Undirected graphs store both
// directions.
type Edge struct {
	U, V int
}

// Graph is an unweighted graph over n nodes, stored as a deduplicated,
// sorted COO edge list with a CSR index built on demand.
//
// GNNVault treats the edge set as the private asset: a Graph value is what
// gets sealed into the enclave, and what link-stealing attacks try to
// recover.
type Graph struct {
	n     int
	edges []Edge // sorted by (U, V), deduplicated, no self loops

	// CSR index over edges; rowPtr has n+1 entries, colIdx holds the
	// neighbour of each edge in row order.
	rowPtr []int
	colIdx []int
}

// New returns a graph over n nodes with the given undirected edges.
// Each input pair {u, v} is stored in both directions; self loops and
// duplicates are dropped. It panics if any endpoint is out of range.
func New(n int, undirected []Edge) *Graph {
	g := &Graph{n: n}
	seen := make(map[[2]int]bool, 2*len(undirected))
	for _, e := range undirected {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n))
		}
		if e.U == e.V {
			continue
		}
		for _, d := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			if !seen[d] {
				seen[d] = true
				g.edges = append(g.edges, Edge{d[0], d[1]})
			}
		}
	}
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].U != g.edges[j].U {
			return g.edges[i].U < g.edges[j].U
		}
		return g.edges[i].V < g.edges[j].V
	})
	g.buildCSR()
	return g
}

// NewFromDirected builds a graph from an already-symmetric directed edge
// list (both directions present). Used by deserialisation.
func NewFromDirected(n int, directed []Edge) *Graph {
	half := make([]Edge, 0, len(directed)/2+1)
	for _, e := range directed {
		if e.U < e.V {
			half = append(half, e)
		}
	}
	return New(n, half)
}

func (g *Graph) buildCSR() {
	g.rowPtr = make([]int, g.n+1)
	g.colIdx = make([]int, len(g.edges))
	for _, e := range g.edges {
		g.rowPtr[e.U+1]++
	}
	for i := 0; i < g.n; i++ {
		g.rowPtr[i+1] += g.rowPtr[i]
	}
	fill := make([]int, g.n)
	for _, e := range g.edges {
		g.colIdx[g.rowPtr[e.U]+fill[e.U]] = e.V
		fill[e.U]++
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumDirectedEdges returns the number of stored directed edges (twice the
// undirected edge count). This matches the "# Edge" convention of the
// paper's Table I, which counts each undirected edge twice.
func (g *Graph) NumDirectedEdges() int { return len(g.edges) }

// NumUndirectedEdges returns the number of undirected edges.
func (g *Graph) NumUndirectedEdges() int { return len(g.edges) / 2 }

// Degree returns the degree of node u (not counting self loops).
func (g *Graph) Degree(u int) int { return g.rowPtr[u+1] - g.rowPtr[u] }

// Neighbors returns a view of u's neighbour list, sorted ascending.
func (g *Graph) Neighbors(u int) []int {
	return g.colIdx[g.rowPtr[u]:g.rowPtr[u+1]]
}

// HasEdge reports whether the directed edge (u → v) exists. The graph is
// symmetric, so this equals undirected adjacency.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// UndirectedEdges returns one representative (u < v) per undirected edge.
func (g *Graph) UndirectedEdges() []Edge {
	out := make([]Edge, 0, len(g.edges)/2)
	for _, e := range g.edges {
		if e.U < e.V {
			out = append(out, e)
		}
	}
	return out
}

// Density returns the fraction of possible undirected edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	possible := float64(g.n) * float64(g.n-1) / 2
	return float64(g.NumUndirectedEdges()) / possible
}

// AvgDegree returns the mean node degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.edges)) / float64(g.n)
}

// DenseAdjacencyBytes returns the memory an n×n dense float64 adjacency
// matrix would occupy, the quantity reported in the paper's Table I
// ("DenseA (MB)") to motivate COO storage inside the enclave.
func (g *Graph) DenseAdjacencyBytes() int64 {
	return int64(g.n) * int64(g.n) * 8
}

// COOBytes returns the enclave-resident footprint of the COO representation
// (two int32 indices per directed edge) plus the precomputed inverse-sqrt
// degree vector the paper stores alongside it.
func (g *Graph) COOBytes() int64 {
	return int64(len(g.edges))*8 + int64(g.n)*8
}

// Homophily returns the fraction of directed edges whose endpoints share a
// label. GCN accuracy on a graph is driven by this quantity, which is why
// the synthetic dataset generator controls it explicitly.
func (g *Graph) Homophily(labels []int) float64 {
	if len(labels) != g.n {
		panic(fmt.Sprintf("graph: Homophily labels length %d != n %d", len(labels), g.n))
	}
	if len(g.edges) == 0 {
		return 0
	}
	same := 0
	for _, e := range g.edges {
		if labels[e.U] == labels[e.V] {
			same++
		}
	}
	return float64(same) / float64(len(g.edges))
}

// Equal reports whether two graphs have identical node counts and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || len(g.edges) != len(o.edges) {
		return false
	}
	for i, e := range g.edges {
		if o.edges[i] != e {
			return false
		}
	}
	return true
}
