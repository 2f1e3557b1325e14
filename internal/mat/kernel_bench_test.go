package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernels' micro-benchmarks, the counterparts of graph's
// BenchmarkSpMMGather for the fp64 gather: CI's bench-short step runs
// them at GOMAXPROCS=1 so both tiers' kernels are on the trajectory.

// BenchmarkRequantizeRow times one requantise row apart from any
// accumulate — the half RequantizeRow's callers pay for (the boundary
// quantiser, the standalone element-wise ops) — at the widths the served
// programs have (3 logits, 16/32 hidden, 128 a wide backbone block) over
// an accumulator row: bare, and + bias + ReLU. The products themselves run
// these forms, and the wide argmax, inside BenchmarkProductRangeI8's one
// call per range. ns/elem is per output column.
func BenchmarkRequantizeRow(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{3, 16, 32, 128} {
		c := newRequantCase(rng, n, true, true, false, 0, 0)
		dst := make([]int8, n)
		for _, form := range []struct {
			name string
			bias []float64
			relu bool
		}{
			{"acc", nil, false},
			{"acc+bias+relu", c.bias, true},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, form.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RequantizeRow(dst, c.acc, c.deq, form.bias, nil, nil, c.dst, form.relu)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

// BenchmarkProductRangeI8 times the int8 range entries — the sparse
// product's and the dense product's, each one kernel call per range,
// accumulate and requantise row after row — at the widths of the served
// programs (3 logits, 16/32/64 hidden) and at 8, the one width that
// reaches the eight-column block, with a mean of 6 and of 32 terms a
// row (a citation graph's neighbours, a compacted activation row) in the
// three forms their ops run: the bare accumulator, + bias + ReLU (a
// product's fused tail), and the wide-argmax head. The sparse rows hold
// 0…2·mean float64 values, quantised inside the call, over a 2000-row
// (L2-resident) source; the dense input rows are 2·mean wide and half
// zeros. An op is one output row — ranges are 2000 rows, the last one of a
// run shorter — so ns/op is ns per row, the figure to set beside
// BenchmarkProductRangeF64's.
func BenchmarkProductRangeI8(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const rows = 2000
	for _, p := range []int{3, 16, 32, 64, 8} { // 8 last: the others keep their random draws
		c := newRequantCase(rng, p, true, true, false, 0, 0)
		src, dst := NewI8(rows, p), NewI8(rows, p)
		for i := range src.Data {
			src.Data[i] = int8(rng.Intn(255) - 127)
		}
		acc, labels := make([]int32, p), make([]int, rows)
		for _, terms := range []int{6, 32} {
			rowPtr, col, val := make([]int, rows+1), []int(nil), []float64(nil)
			a := NewI8(rows, 2*terms)
			for i := 0; i < rows; i++ {
				for k := rng.Intn(2*terms + 1); k > 0; k-- {
					col, val = append(col, rng.Intn(rows)), append(val, 2*rng.Float64()-1)
				}
				rowPtr[i+1] = len(col)
				for k := 0; k < 2*terms; k++ {
					if rng.Intn(2) == 0 {
						a.Data[i*2*terms+k] = int8(rng.Intn(255) - 127)
					}
				}
			}
			weights := &MatrixI8{Rows: 2 * terms, Cols: p, Data: src.Data[:2*terms*p]}
			for _, form := range []struct {
				name   string
				bias   []float64
				relu   bool
				labels []int
			}{
				{"acc", nil, false, nil},
				{"acc+bias+relu", c.bias, true, nil},
				{"argmax", c.bias, false, labels},
			} {
				e := CheckEpilogueI8(p, c.deq, form.bias, nil, c.dst, form.relu, form.labels != nil)
				b.Run(fmt.Sprintf("sparse/p=%d/terms=%d/%s", p, terms, form.name), func(b *testing.B) {
					for done := 0; done < b.N; done += rows {
						hi := min(rows, b.N-done)
						cc := CheckCSR(rowPtr, col, val, 0, hi, 0, rows) // once per op range, as the drivers do
						e.SparseRange(dst.Data[:hi*p], &cc, 1.0/127, src.Data, nil, acc, form.labels)
					}
				})
				b.Run(fmt.Sprintf("dense/p=%d/terms=%d/%s", p, terms, form.name), func(b *testing.B) {
					for done := 0; done < b.N; done += rows {
						hi := min(rows, b.N-done)
						MatMulI8EpilogueInto(&MatrixI8{Rows: hi, Cols: p, Data: dst.Data[:hi*p]}, &MatrixI8{Rows: hi, Cols: 2 * terms, Data: a.Data[:hi*2*terms]},
							weights, c.deq, form.bias, nil, nil, form.relu, c.dst, acc, form.labels)
					}
				})
			}
		}
	}
}

// BenchmarkProductRangeF64 times the fp64 range entries — the sparse
// product's and the dense product's, each one kernel call per range — at
// the widths of the served programs (3 logits, 16/32/64 hidden) with a
// mean of 6 and of 32 terms a row (a citation graph's neighbours, a
// compacted activation row) in the three forms the fused ops run: bare,
// + bias + ReLU, + bias + residual + ReLU. The sparse rows hold 0…2·mean
// terms over a 2000-row (L2-resident, so never hinted) source; the dense
// input rows are 2·mean wide and half zeros. An op is one output row —
// ranges are 2000 rows, the last one of a run shorter — so ns/op is ns
// per row, the figure to set beside BenchmarkProductRangeI8's.
func BenchmarkProductRangeF64(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const rows = 2000
	for _, p := range []int{3, 16, 32, 64} {
		src := New(rows, p)
		bias, res, dst := make([]float64, p), New(rows, p), New(rows, p)
		for _, m := range []*Matrix{src, res, {Data: bias}} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		for _, terms := range []int{6, 32} {
			rowPtr, col, val := make([]int, rows+1), []int(nil), []float64(nil)
			a := New(rows, 2*terms)
			for i := 0; i < rows; i++ {
				for k := rng.Intn(2*terms + 1); k > 0; k-- {
					col, val = append(col, rng.Intn(rows)), append(val, rng.NormFloat64())
				}
				rowPtr[i+1] = len(col)
				for k := 0; k < 2*terms; k++ {
					if rng.Intn(2) == 0 {
						a.Data[i*2*terms+k] = rng.NormFloat64()
					}
				}
			}
			weights := &Matrix{Rows: 2 * terms, Cols: p, Data: src.Data[:2*terms*p]}
			for _, form := range []struct {
				name string
				bias []float64
				res  *Matrix
				relu bool
			}{
				{"bare", nil, nil, false},
				{"bias+relu", bias, nil, true},
				{"bias+res+relu", bias, res, true},
			} {
				e := CheckEpilogue(rows, p, form.bias, form.res, form.relu)
				b.Run(fmt.Sprintf("sparse/p=%d/terms=%d/%s", p, terms, form.name), func(b *testing.B) {
					for done := 0; done < b.N; done += rows {
						hi := min(rows, b.N-done)
						c := CheckCSR(rowPtr, col, val, 0, hi, 2, rows) // once per op range, as the drivers do
						e.SparseRange(dst.Data[:hi*p], &c, src.Data, 0)
					}
				})
				b.Run(fmt.Sprintf("dense/p=%d/terms=%d/%s", p, terms, form.name), func(b *testing.B) {
					for done := 0; done < b.N; done += rows {
						matMulEpilogueRange(a, weights, dst, 0, min(rows, b.N-done), &e)
					}
				})
			}
		}
	}
}
