package exec

import (
	"math"

	"gnnvault/internal/mat"
)

// The attention aggregate (OpAttn) is an SpMM whose values are computed
// instead of loaded. For output row i, over the column indices j of row i
// of the op's CSR structure, in CSR order:
//
//	e[j] = LeakyReLU(s[i] + t[j])           (e < 0 ? e·slope : e)
//	α[j] = exp(e[j] − maxⱼ e) / Σⱼ exp(e[j] − maxⱼ e)
//	dst[i] = epilogue(Σⱼ α[j] · z[j])
//
// — the stable softmax of GAT's edge scores, whose coefficients are then
// simply the values of a CSR row: the op is the sparse range
// (mat.CheckedEpilogue.SparseRange) over z's rows, look-ahead hints
// included, finished by the fused epilogue in the same kernel call. It
// therefore shares SpMM's operand rule (z and t are read whole, s and dst
// by row) and its fusable epilogue, and its rows are independent: tiled
// == direct bit for bit.
//
// A span proves its structure rows and columns once (mat.CheckCSR), before
// its first row is written, and is then computed in batches: as many
// consecutive rows as the coefficient scratch holds, at most attnBatch,
// have their coefficients written into it and go to the kernel in one
// range call (mat.CheckedCSR.Batch rebases the batch's row pointers onto
// the scratch). The only memory the op needs beyond its operands is that
// scratch, sized at NewMachine from the longest row of the structures as
// they are then (a structure re-filled with a longer row afterwards is a
// planning bug and panics on the slice) and charged in BufferBytes and
// TileBytes. There is no nnz-sized coefficient buffer.
//
// At int8 the scores are read as code × their one column scale, α is
// computed in float64 exactly as above and handed, with the fixed scale
// attnScale, to the int8 sparse range (mat.CheckedEpilogueI8.SparseRange):
// a row of α under attnScale is exactly a CSR row under its value scale,
// so the kernel quantises the coefficients as the int8 SpMM's does its
// edge values, sums each row over z's codes and requantises it with
// deq[j] = zScale[j]·attnScale. Both halves are the kernel contracts every
// int8 op already sits on, and the int32 sum is exact and order-free
// (bounded by 127·(127 + nnz/2) a row), so the bit-identity carries over.

// attnScale is the fixed quantisation scale of attention coefficients: a
// softmax output lies in (0, 1], so codes span [0, 127] uncalibrated.
const attnScale = 1.0 / 127

// attnAhead is how many structure rows ahead the fp64 body hands the row
// accumulate as look-ahead hints — graph's gatherAhead, same gather.
const attnAhead = 2

// attnBatch is the most rows one kernel call of an attention span takes:
// it sizes the stack array a batch's row pointers are rebased into.
const attnBatch = 64

// maxAttnRow returns the longest CSR row any attention op of the program
// aggregates over — the length of the coefficient scratch row — and 0 for
// programs without the op.
func (p *Program) maxAttnRow() int {
	n := 0
	for i := range p.ops {
		if op := &p.ops[i]; op.Kind == OpAttn {
			for r := 0; r < op.CSR.N; r++ {
				n = max(n, op.CSR.RowPtr[r+1]-op.CSR.RowPtr[r])
			}
		}
	}
	return n
}

// attnSoftmaxRow turns one row's gathered target scores t[j], held in
// alpha, into its attention coefficients in place, given the row's source
// score si.
func attnSoftmaxRow(alpha []float64, si, slope float64) {
	mx := math.Inf(-1)
	for k, tj := range alpha {
		e := si + tj
		if e < 0 {
			e *= slope
		}
		alpha[k] = e
		if e > mx {
			mx = e
		}
	}
	sum := 0.0
	for k, e := range alpha {
		alpha[k] = math.Exp(e - mx)
		sum += alpha[k]
	}
	for k := range alpha {
		alpha[k] /= sum
	}
}

// attnBatchEnd returns the end of the batch of structure rows that
// starts at row b of a span ending at hi: at most attnBatch rows whose
// terms fit in a coefficient scratch of room, and always row b itself,
// which the scratch was sized for.
func attnBatchEnd(rowPtr []int, b, hi, room int) int {
	e := b + 1
	for e < hi && e-b < attnBatch && rowPtr[e+1]-rowPtr[b] <= room {
		e++
	}
	return e
}

// attnRowsF64 computes rows [lo, hi) of an attention aggregate into out
// (row 0 pairing with row lo; res likewise).
func (m *Machine) attnRowsF64(out *mat.Matrix, op *Op, lo, hi int, res *mat.Matrix) {
	st := op.CSR
	s, t, z := &m.views[op.Srcs[0]], &m.views[op.Srcs[1]], &m.views[op.Srcs[2]]
	d := z.Cols
	// The span's proofs, before its first row: the structure's rows and
	// columns against z's height, the epilogue operands against the
	// rows' shape.
	span := mat.CheckCSR(st.RowPtr[:st.N+1], st.ColIdx, st.Val, lo, hi, attnAhead, z.Rows)
	epi := mat.CheckEpilogue(hi-lo, d, op.Epi.Bias, res, op.Epi.ReLU)
	var ptr [attnBatch + attnAhead + 1]int
	for b := lo; b < hi; {
		e := attnBatchEnd(st.RowPtr, b, hi, len(m.scratch.alpha))
		base := st.RowPtr[b]
		coef := m.scratch.alpha[:st.RowPtr[e]-base]
		for i := b; i < e; i++ {
			at, end := st.RowPtr[i], st.RowPtr[i+1]
			row := coef[at-base : end-base]
			for k, j := range st.ColIdx[at:end] {
				row[k] = t.Data[j]
			}
			attnSoftmaxRow(row, s.Data[i], op.slope)
		}
		c := span.Batch(ptr[:], b-lo, e-lo, coef)
		epi.SparseRange(out.Data[(b-lo)*d:(e-lo)*d], &c, z.Data, b-lo)
		b = e
	}
}

// attnRowsI8 is attnRowsF64 over codes: a is the op's prepared operands
// (deq), wide receives the rows' wide-argmax labels when the op is the
// program's head.
func (m *Machine) attnRowsI8(out *mat.MatrixI8, a *opAuxI8, op *Op, lo, hi int, res *mat.MatrixI8, resScales []float64, wide []int) {
	q, sc, st := m.q, m.cfg.Scales, op.CSR
	s, t, z := &q.views[op.Srcs[0]], &q.views[op.Srcs[1]], &q.views[op.Srcs[2]]
	sScale, tScale := sc[op.Srcs[0]][0], sc[op.Srcs[1]][0]
	d := z.Cols
	// The span's proofs, before its first row: the structure's rows and
	// columns against z's height, the epilogue operands against z's width.
	span := mat.CheckCSR(st.RowPtr[:st.N+1], st.ColIdx, st.Val, lo, hi, 0, z.Rows)
	epi := mat.CheckEpilogueI8(d, a.deq, op.Epi.Bias, resScales, sc[op.Dst], op.Epi.ReLU, wide != nil)
	var ptr [attnBatch + 1]int
	for b := lo; b < hi; {
		e := attnBatchEnd(st.RowPtr, b, hi, len(q.scr.alpha))
		base := st.RowPtr[b]
		coef := q.scr.alpha[:st.RowPtr[e]-base]
		for i := b; i < e; i++ {
			at, end := st.RowPtr[i], st.RowPtr[i+1]
			row := coef[at-base : end-base]
			for k, j := range st.ColIdx[at:end] {
				row[k] = float64(t.Data[j]) * tScale
			}
			attnSoftmaxRow(row, float64(s.Data[i])*sScale, op.slope)
		}
		var rrows []int8
		if res != nil {
			rrows = res.Data[(b-lo)*d : (e-lo)*d]
		}
		var labels []int
		if wide != nil {
			labels = wide[b-lo : e-lo]
		}
		c := span.Batch(ptr[:], b-lo, e-lo, coef)
		epi.SparseRange(out.Data[(b-lo)*d:(e-lo)*d], &c, attnScale, z.Data, rrows, q.scr.acc[:d], labels)
		b = e
	}
}
