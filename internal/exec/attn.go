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
// simply the multipliers of one row accumulate over z's rows, look-ahead
// hints included, finished by the fused epilogue in the same kernel call
// (mat.CheckedEpilogue.ProductRow). It therefore shares SpMM's operand
// rule (z and t are read whole, s and dst by row) and its fusable
// epilogue, and its rows are independent: tiled == direct bit for bit.
//
// The only memory the op needs beyond its operands is one row of
// coefficients in the machine's scratch, sized at NewMachine from
// the longest row of the structures as they are then (a structure
// re-filled with a longer row afterwards is a planning bug and panics on
// the slice) and charged in BufferBytes and TileBytes. There is no
// nnz-sized coefficient buffer.
//
// At int8 the scores are read as code × their one column scale, α is
// computed in float64 exactly as above and handed, with the fixed scale
// attnScale, to the int8 row door (mat.CheckedEpilogueI8.ProductRow): a
// row of α under attnScale is exactly a CSR row under its value scale, so
// the kernel quantises the coefficients as the int8 SpMM's does its edge
// values, sums the row over z's codes and requantises it with deq[j] =
// zScale[j]·attnScale. Both halves are the kernel contracts every int8 op
// already sits on, and the int32 sum is exact and order-free (bounded by
// 127·(127 + nnz/2) a row), so the bit-identity carries over.

// attnScale is the fixed quantisation scale of attention coefficients: a
// softmax output lies in (0, 1], so codes span [0, 127] uncalibrated.
const attnScale = 1.0 / 127

// attnAhead is how many structure rows ahead the fp64 body hands the row
// accumulate as look-ahead hints — graph's gatherAhead, same gather.
const attnAhead = 2

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

// attnRowsF64 computes rows [lo, hi) of an attention aggregate into out
// (row 0 pairing with row lo; res likewise).
func (m *Machine) attnRowsF64(out *mat.Matrix, op *Op, lo, hi int, res *mat.Matrix) {
	st := op.CSR
	s, t, z := &m.views[op.Srcs[0]], &m.views[op.Srcs[1]], &m.views[op.Srcs[2]]
	d := z.Cols
	base := st.RowPtr[lo]
	// The span's proofs, before its first row: the structure's columns
	// against z's height, the epilogue operands against the rows' shape.
	checked := mat.CheckIndices(st.ColIdx[base:st.RowPtr[hi]], z.Rows)
	epi := mat.CheckEpilogue(hi-lo, d, op.Epi.Bias, res, op.Epi.ReLU)
	for i := lo; i < hi; i++ {
		p, end := st.RowPtr[i], st.RowPtr[i+1]
		cols := st.ColIdx[p:end]
		alpha := m.scratch.alpha[:len(cols)]
		for k, j := range cols {
			alpha[k] = t.Data[j]
		}
		attnSoftmaxRow(alpha, s.Data[i], op.slope)
		var ahead []int
		if a := i + attnAhead; a < st.N {
			ahead = st.ColIdx[st.RowPtr[a]:st.RowPtr[a+1]]
		}
		epi.ProductRow(out.Data[(i-lo)*d:(i-lo+1)*d], alpha, checked.Slice(p-base, end-base), z.Data, i-lo, ahead)
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
	acc := q.scr.acc[:d]
	base := st.RowPtr[lo]
	// The span's proofs, before its first row: the structure's columns
	// against z's height, the epilogue operands against z's width.
	checked := mat.CheckIndices(st.ColIdx[base:st.RowPtr[hi]], z.Rows)
	epi := mat.CheckEpilogueI8(d, a.deq, op.Epi.Bias, resScales, sc[op.Dst], op.Epi.ReLU, wide != nil)
	for i := lo; i < hi; i++ {
		p := st.RowPtr[i]
		cols := st.ColIdx[p:st.RowPtr[i+1]]
		alpha := q.scr.alpha[:len(cols)]
		for k, j := range cols {
			alpha[k] = float64(t.Data[j]) * tScale
		}
		attnSoftmaxRow(alpha, float64(s.Data[i])*sScale, op.slope)
		var rrow []int8
		if res != nil {
			rrow = res.Data[(i-lo)*d : (i-lo+1)*d]
		}
		am := epi.ProductRow(out.Data[(i-lo)*d:(i-lo+1)*d], acc, alpha, attnScale, checked.Slice(p-base, p-base+len(cols)), z.Data, rrow)
		if wide != nil {
			wide[i-lo] = am
		}
	}
}
