package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// The int8 kernels' micro-benchmarks, the counterparts of graph's
// BenchmarkSpMMGather for the fp64 gather: CI's bench-short step runs
// them at GOMAXPROCS=1 so both tiers' kernels are on the trajectory.

var benchSink int

// BenchmarkRequantizeRow times one requantise row at the widths the
// served programs have (3 logits, 16/32 hidden, 128 a wide backbone
// block) in the three forms a GCN rectifier runs: the bare accumulator,
// accumulator + bias + ReLU, and the wide-argmax head. ns/elem is per
// output column.
func BenchmarkRequantizeRow(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{3, 16, 32, 128} {
		c := newRequantCase(rng, n, true, true, false, 0, 0)
		dst := make([]int8, n)
		for _, form := range []struct {
			name         string
			bias         []float64
			relu, argmax bool
		}{
			{"acc", nil, false, false},
			{"acc+bias+relu", c.bias, true, false},
			{"argmax", c.bias, false, true},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, form.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += RequantizeRow(dst, c.acc, c.deq, form.bias, nil, nil, c.dst, form.relu, form.argmax)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

// BenchmarkRowAccumulateI8 times one int8 row accumulate of p columns
// over terms source rows drawn from a 2000-row (L2-resident) source, as
// the int8 SpMM and the compacted dense product issue it. ns/mac is per
// multiply-accumulate.
func BenchmarkRowAccumulateI8(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const rows = 2000
	for _, p := range []int{3, 16, 32} {
		src := make([]int8, rows*p)
		for i := range src {
			src[i] = int8(rng.Intn(255) - 127)
		}
		out := make([]int32, p)
		for _, terms := range []int{6, 16, 32} {
			alpha, idx := make([]int32, terms), make([]int, terms)
			for t := range alpha {
				alpha[t], idx[t] = int32(rng.Intn(255)-127), rng.Intn(rows)
			}
			checked := CheckIndices(idx, rows) // once per op range, as the drivers do
			b.Run(fmt.Sprintf("p=%d/terms=%d", p, terms), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RowAccumulateI8(out, alpha, checked, src, false)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p*terms), "ns/mac")
			})
		}
	}
}
