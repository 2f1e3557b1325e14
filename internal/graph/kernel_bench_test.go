package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// Kernel micro-benchmarks for the serving hot loops: the sparse product
// over a power-law adjacency (gather-bound) and its fused-epilogue form.
// Run with:
//
//	go test -run '^$' -bench Kernel ./internal/graph/
func benchAdj(n int) *NormAdjacency {
	g := PreferentialAttachment(PreferentialAttachmentConfig{Nodes: n, EdgesPerNode: 8, Seed: 1})
	return Normalize(g)
}

func benchDense(rows, cols int) *mat.Matrix {
	rng := rand.New(rand.NewSource(2))
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkKernelSpMM(b *testing.B) {
	const n, d = 100_000, 64
	adj := benchAdj(n)
	h := benchDense(n, d)
	out := mat.New(n, d)
	b.SetBytes(int64(adj.NNZ()) * int64(d) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDenseBiasReLUInto(out, h, nil, nil, false, 1)
	}
}

func BenchmarkKernelSpMMFused(b *testing.B) {
	const n, d = 100_000, 64
	adj := benchAdj(n)
	h := benchDense(n, d)
	bias := benchDense(1, d).Data
	out := mat.New(n, d)
	b.SetBytes(int64(adj.NNZ()) * int64(d) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.MulDenseBiasReLUInto(out, h, bias, nil, true, 1)
	}
}

func BenchmarkKernelMatMul(b *testing.B) {
	const n, k, p = 100_000, 64, 32
	a := benchDense(n, k)
	w := benchDense(k, p)
	out := mat.New(n, p)
	b.SetBytes(int64(n) * k * p * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulBiasReLUInto(out, a, w, nil, nil, false, 1)
	}
}

// BenchmarkSpMMGather puts both sides of the look-ahead rule on record
// (gatherAhead here, the kernel's own conditions in mat/rowacc_amd64.go):
// a source the L2 holds and two it does not, at the widths the serving
// plans run — 3 (logits: under one cache line a source row, never
// hinted) and 16/32/64. The graphs have the citation fixtures' density
// (≈ 4.5 neighbours a node, uniformly scattered), so under "gather" every
// non-zero is a fresh row from somewhere else in the source. "stream" is
// the roofline beside it: the same CSR shape and the same kernel with the
// column indices rewritten to walk the source in order, which is what the
// cache hierarchy delivers when nothing has to be guessed. ns/nnz is the
// number to read; MB/s counts the source bytes the product reads.
func BenchmarkSpMMGather(b *testing.B) {
	for _, n := range []int{600, 20_000, 200_000} {
		gather := Normalize(Random(n, n*9/4, 3))
		stream := *gather
		stream.ColIdx = make([]int, len(gather.ColIdx))
		for q := range stream.ColIdx {
			stream.ColIdx[q] = q % n
		}
		for _, d := range []int{3, 16, 32, 64} {
			h := benchDense(n, d)
			out := mat.New(n, d)
			for _, c := range []struct {
				order string
				adj   *NormAdjacency
			}{{"gather", gather}, {"stream", &stream}} {
				b.Run(fmt.Sprintf("n=%d/d=%d/%s", n, d, c.order), func(b *testing.B) {
					b.SetBytes(int64(c.adj.NNZ()) * int64(d) * 8)
					for i := 0; i < b.N; i++ {
						c.adj.MulDenseBiasReLUInto(out, h, nil, nil, false, 1)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.adj.NNZ()), "ns/nnz")
				})
			}
		}
	}
}
