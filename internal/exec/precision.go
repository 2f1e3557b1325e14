package exec

import (
	"fmt"

	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
)

// Quantized execution. A machine planned with Config.Elem I8 runs the
// same compiled program, through the same Run loop, over symmetric int8
// codes: weights are column-quantized once at plan time, Run quantizes
// its float64 inputs at the ECALL boundary into pre-allocated code
// buffers, every spill buffer and staging tile stores one byte per
// element, and the output is dequantized back to float64 so callers see
// the same interface at either element type. Dequantization is folded
// into the existing epilogue — an int8 fused conv is still 2 ops — and
// the tiling driver is the fp64 engine's own, so the bit-identity
// contract (tiled == direct) carries over: int8 accumulates exactly in
// int32, which is order-free. Fused and unfused
// int8 programs are each internally bit-stable but legitimately differ
// from one another, unlike fp64 — fusion moves the requantization point
// (a fused bias adds to the exact accumulator, an unfused one to
// already-requantized codes).

// Elem is the element type of a machine's buffers, tiles and kernels.
type Elem uint8

// The element vocabulary. F64 is the zero value: existing Config
// literals plan the reference engine unchanged.
const (
	F64 Elem = iota // float64, the reference engine
	I8              // symmetric int8 codes, int32 accumulation, 1-byte buffers
)

// Size returns the element width in bytes.
func (e Elem) Size() int {
	if e == I8 {
		return 1
	}
	return 8
}

// String names the element type for diagnostics and benchmark rows.
func (e Elem) String() string {
	if e == I8 {
		return "int8"
	}
	return "fp64"
}

// quantized holds an I8 machine's state: code buffers, staging tiles,
// quantized operands and scratch. BufferBytes/TileBytes count neither
// boundary buffer. in receives the quantized inputs, which core prices as
// the plan's payload: a direct plan charges them to the EPC and holds them
// across the passes over one record (Machine.SetInputEpoch), a tiled plan
// keeps them in sealed untrusted pages and bills their transfer on every
// pass. out64 holds the dequantized output and is charged nowhere (ROADMAP
// item 11 owns that).
type quantized struct {
	spill []*mat.MatrixI8 // per value, over its slot; nil for inputs, dead and chained values
	views []mat.MatrixI8  // per value, bound per Run
	in    []*mat.MatrixI8 // per program input: boundary quantization buffer
	tile  *mat.MatrixI8   // staging tile (tiled mode)
	aux   []opAuxI8       // per op
	scr   scratchI8       // op-body headers and accumulator
	out64 *mat.Matrix     // dequantized output, bound as the output view

	// wideHead is the op index whose epilogue computes the program's
	// argmax labels "wide" — from the pre-requantization floats instead of
	// the output codes — or -1. Set when the argmax source is produced by
	// a MatMul/SpMM/Attn: the exact int32 accumulator separates logits
	// that requantization to shared int8 codes would collapse, the
	// dominant quantized-argmax error source on thin-margin heads.
	wideHead int
}

// opAuxI8 carries one op's quantized operands and dequantization scales.
type opAuxI8 struct {
	// w holds an OpMatMul's folded weight codes: the source value's
	// per-column scales multiply into the weight's rows before column
	// quantization (the reduction runs over the source's columns, whose
	// scales vary inside the sum, so they must ride in the weight for the
	// MAC to stay int8×int8→int32).
	w *mat.MatrixI8
	// deq is the per-column combined dequantization scale fed to the
	// epilogue: the folded weight's column scales for MatMul,
	// source-column scale × value scale for SpMM (refreshed per Run),
	// z-column scale × attnScale for Attn.
	deq []float64
	// vs is the SpMM value scale of the current Run, derived from the
	// CSR's ValMaxAbs so re-induced subgraph operators stay calibrated.
	// vsFrom is the first SpMM op over the same operator: the operator
	// cannot change inside a Run, so only that op scans its values and
	// the others copy its scale.
	vs     float64
	vsFrom int
	// cs holds the per-column source scales of an OpConcat, aligned to
	// Srcs.
	cs [][]float64
}

// scratchI8 is the int8 op body's pre-allocated header set, mirroring
// scratchF64, plus the int32 accumulator row the int8 kernels require.
type scratchI8 struct {
	srcTiles []mat.MatrixI8
	srcPtrs  []*mat.MatrixI8
	tileView mat.MatrixI8
	dstTile  mat.MatrixI8
	resTile  mat.MatrixI8
	acc      []int32
	alpha    []float64 // attention coefficients of the row in hand, as scratchF64's

	// Chaining, as scratchF64's: the band scratch of codes, its header,
	// the chained MatMul's argument list and the band's rows of the tile.
	band    []int8
	bandMat mat.MatrixI8
	bandSrc [1]*mat.MatrixI8
	bandOut mat.MatrixI8
}

// planI8 allocates the code slots of an I8 machine under the buffer plan
// and quantizes the program's weights, called once from NewMachine after
// the shared planning.
func (m *Machine) planI8(bp bufferPlan) error {
	p, cfg := m.prog, m.cfg
	if len(cfg.Scales) != len(p.vals) {
		return fmt.Errorf("exec: int8 machine needs %d per-value scale vectors, got %d (run CalibrateScales)", len(p.vals), len(cfg.Scales))
	}
	for i, v := range p.vals {
		if !v.dead && len(cfg.Scales[i]) != v.width {
			return fmt.Errorf("exec: int8 machine value %d needs %d per-column scales, got %d (run CalibrateScales)", i, v.width, len(cfg.Scales[i]))
		}
	}
	q := &quantized{
		wideHead: -1,
		spill:    make([]*mat.MatrixI8, len(p.vals)),
		views:    make([]mat.MatrixI8, len(p.vals)),
		in:       make([]*mat.MatrixI8, p.numInputs),
		aux:      make([]opAuxI8, len(p.ops)),
		scr: scratchI8{
			srcTiles: make([]mat.MatrixI8, p.maxArity),
			srcPtrs:  make([]*mat.MatrixI8, p.maxArity),
			acc:      make([]int32, p.maxWidth),
			alpha:    make([]float64, m.attnRow),
			band:     make([]int8, min(chainBand, cfg.TileRows)*p.chainWidth),
		},
		out64: mat.New(p.MaxRows, p.vals[p.output].width),
	}
	m.q = q
	// Wide argmax head: when the argmax source comes straight out of a
	// MatMul/SpMM/Attn (the argmax op is always last — builders refuse ops
	// after it), label from that op's epilogue floats. A head produced by
	// an element-wise op keeps the code-space argmax.
	if p.hasArgmax {
		amSrc := p.ops[len(p.ops)-1].Srcs[0]
		for i := len(p.ops) - 2; i >= 0; i-- {
			op := &p.ops[i]
			if op.Dst != amSrc {
				continue
			}
			if op.Kind.hasEpilogue() {
				q.wideHead = i
			}
			break
		}
	}
	data, err := allocSlots[int8](p, bp, m.host)
	if err != nil {
		return err
	}
	for i, v := range p.vals {
		switch {
		case v.input >= 0:
			q.in[v.input] = mat.NewI8(p.MaxRows, v.width)
		case bp.slot[i] >= 0:
			q.spill[i] = &mat.MatrixI8{Rows: p.MaxRows + v.extra, Cols: v.width, Data: data[i]}
		}
	}
	if m.tiled {
		q.tile = mat.NewI8(cfg.TileRows, p.maxWidth)
	}
	for i := range p.ops {
		op, a := &p.ops[i], &q.aux[i]
		switch op.Kind {
		case OpMatMul:
			// Fold the source's per-column scales into the weight rows,
			// then column-quantize the folded matrix: the MAC consumes raw
			// codes and the epilogue dequantizes with the folded column
			// scales alone.
			ss := cfg.Scales[op.Srcs[0]]
			folded := mat.New(op.W.Rows, op.W.Cols)
			for k := 0; k < op.W.Rows; k++ {
				frow := folded.Row(k)
				wrow := op.W.Row(k)
				for j, v := range wrow {
					frow[j] = v * ss[k]
				}
			}
			a.w, a.deq = mat.QuantizeColumnsI8(folded)
		case OpSpMM:
			a.deq = make([]float64, p.vals[op.Dst].width)
			a.vsFrom = i
			for j := 0; j < i; j++ {
				if p.ops[j].Kind == OpSpMM && p.ops[j].CSR == op.CSR {
					a.vsFrom = j
					break
				}
			}
		case OpConcat:
			a.cs = make([][]float64, len(op.Srcs))
			for k, s := range op.Srcs {
				a.cs[k] = cfg.Scales[s]
			}
		case OpAttn:
			a.deq = make([]float64, p.vals[op.Dst].width)
			for j, zs := range cfg.Scales[op.Srcs[2]] {
				a.deq[j] = zs * attnScale
			}
		case OpAddBias, OpReLU, OpAdd, OpArgmax, OpHalo:
			// nothing to prepare: these run on the value scales alone
		default: // fail planning rather than run the kind as a no-op
			return fmt.Errorf("exec: no int8 kernel for op kind %s", op.Kind)
		}
	}
	return nil
}

// opQuantise is not an instruction — no builder emits it and no op body
// runs it: it names the bind step's boundary quantisation in the op spans
// an I8 machine records, so the flight recorder shows that time as its
// own line instead of leaving it in the ECALL's self time.
const opQuantise OpKind = 0xff

// bindI8 is Run's bind step on an I8 machine: quantize the (already
// shape-checked) inputs at the boundary into their code buffers — unless
// keep says they are the record whose codes the buffers hold (takeEpoch) —
// bind every intermediate's code view, and refresh each SpMM's value
// scale. With the recorder on it is one op-level span (quantise; Rows is
// the rows quantised, 0 when skipped).
func (m *Machine) bindI8(rows int, inputs []*mat.Matrix, keep, recOn bool) {
	p, q := m.prog, m.q
	var t0 int64
	if recOn {
		t0 = m.rec.Clock()
	}
	for i, v := range p.vals {
		switch {
		case v.input >= 0:
			q.in[v.input].ViewRows(0, rows, &q.views[i])
			if !keep {
				mat.QuantizeColumnsI8Into(&q.views[i], inputs[v.input], m.cfg.Scales[i])
			}
		case q.spill[i] != nil:
			q.spill[i].ViewRows(0, rows+v.extra, &q.views[i])
		}
	}
	// The value scale comes from the operator's current contents: the
	// subgraph path re-induces the CSR between runs, and quantizing values
	// on the fly under a per-run scale keeps every execution mode (and
	// every re-induction of the same rows) bit-identical without
	// materialising a second value array.
	for i := range p.ops {
		op := &p.ops[i]
		if op.Kind != OpSpMM {
			continue
		}
		a := &q.aux[i]
		if a.vsFrom == i {
			a.vs = mat.SymmetricScale(op.CSR.ValMaxAbs())
		} else {
			a.vs = q.aux[a.vsFrom].vs
		}
		ss := m.cfg.Scales[op.Srcs[0]]
		for j := range a.deq {
			a.deq[j] = a.vs * ss[j]
		}
	}
	if recOn {
		quantised := rows
		if keep {
			quantised = 0
		}
		m.rec.Record(obs.Span{
			Trace:  m.trace,
			Parent: m.parent,
			Kind:   obs.SpanOp,
			Op:     uint8(opQuantise),
			Rows:   int32(quantised),
			Tiles:  1,
			Start:  t0,
			Dur:    m.rec.Clock() - t0,
		})
	}
}

// finishI8 is Run's last step on an I8 machine: dequantize the output
// codes into the float64 view callers read.
func (m *Machine) finishI8(rows int) {
	out := m.q.out64.ViewRows(0, rows, &m.views[m.prog.output])
	mat.DequantizeColumnsI8Into(out, &m.q.views[m.prog.output], m.cfg.Scales[m.prog.output])
}

// runRowsI8 is the int8 op body, runRowsF64 over codes: the same source
// views, the same direct-or-staged destination and the same chained bands
// — a chained value's band holds its codes under its calibrated scales,
// and the MatMul multiplies them by its folded weight codes — plus what
// int8 adds: the per-value scales, the int32 accumulator row and, on the
// wide head, the labels its epilogue writes. The in-enclave direct form
// is single-threaded by construction, so the int8 kernels are serial and
// take no worker budget.
func (m *Machine) runRowsI8(idx int, op *Op, lo, hi int, labels []int) {
	q := m.q
	s := &q.scr
	if op.Kind == OpArgmax {
		// Code-space argmax, unless the head's epilogue labelled these
		// rows already.
		if labels != nil && q.wideHead < 0 {
			q.views[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles[0]).ArgmaxRowsScaledInto(labels[lo:hi], m.cfg.Scales[op.Srcs[0]])
		}
		return
	}
	last := idx
	if m.prog.chains(idx) {
		last = idx + 1
	}
	dst := q.views[m.prog.ops[last].Dst].ViewRows(lo, hi, &s.dstTile)
	out := dst
	if m.tiled {
		s.tileView = mat.MatrixI8{Rows: hi - lo, Cols: dst.Cols, Data: q.tile.Data[:(hi-lo)*dst.Cols]}
		out = &s.tileView
	}
	if last == idx {
		m.opRowsI8(idx, out, m.srcRowsI8(op, lo, hi), lo, hi, labels)
	} else {
		w := m.prog.vals[op.Dst].width
		for b := lo; b < hi; b += chainBand {
			e := min(b+chainBand, hi)
			s.bandMat = mat.MatrixI8{Rows: e - b, Cols: w, Data: s.band[:(e-b)*w]}
			m.opRowsI8(idx, &s.bandMat, m.srcRowsI8(op, b, e), b, e, labels)
			s.bandSrc[0] = &s.bandMat
			m.opRowsI8(last, out.ViewRows(b-lo, e-lo, &s.bandOut), s.bandSrc[:], b, e, labels)
		}
	}
	if m.tiled {
		mat.CopyI8Into(dst, out)
	}
}

// srcRowsI8 views rows [lo, hi) of each of op's sources' codes.
func (m *Machine) srcRowsI8(op *Op, lo, hi int) []*mat.MatrixI8 {
	s := &m.q.scr
	srcs := s.srcPtrs[:len(op.Srcs)]
	for i, v := range op.Srcs {
		srcs[i] = m.q.views[v].ViewRows(lo, hi, &s.srcTiles[i])
	}
	return srcs
}

// opRowsI8 computes rows [lo, hi) of op idx into out from srcs, its
// sources' rows [lo, hi) (a SpMM and an Attn read their gathered operands
// whole), and on the wide head labels rows [lo, hi).
func (m *Machine) opRowsI8(idx int, out *mat.MatrixI8, srcs []*mat.MatrixI8, lo, hi int, labels []int) {
	q, sc := m.q, m.cfg.Scales
	s := &q.scr
	op, a := &m.prog.ops[idx], &q.aux[idx]
	var res *mat.MatrixI8
	var resScales []float64
	if op.Epi.Res >= 0 {
		res = q.views[op.Epi.Res].ViewRows(lo, hi, &s.resTile)
		resScales = sc[op.Epi.Res]
	}
	var wide []int
	if idx == q.wideHead && labels != nil {
		wide = labels[lo:hi]
	}
	srcScales, dstScales := sc[op.Srcs[0]], sc[op.Dst]
	switch op.Kind {
	case OpMatMul:
		mat.MatMulI8EpilogueInto(out, srcs[0], a.w, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, dstScales, s.acc, wide)
	case OpSpMM:
		op.CSR.MulDenseI8EpilogueRangeInto(out, &q.views[op.Srcs[0]], lo, hi, a.vs, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, dstScales, s.acc, wide)
	case OpAddBias:
		addBiasI8(out, srcs[0], op.B, srcScales, dstScales)
	case OpReLU:
		reluI8(out, srcs[0], srcScales, dstScales)
	case OpAdd:
		addI8(out, srcs[0], srcs[1], srcScales, sc[op.Srcs[1]], dstScales, s.acc)
	case OpConcat:
		concatI8(out, srcs, a.cs, dstScales)
	case OpAttn:
		m.attnRowsI8(out, a, op, lo, hi, res, resScales, wide)
	default:
		panic(fmt.Sprintf("exec: no int8 body for op kind %s", op.Kind))
	}
}

// The standalone (unfused) int8 element-wise ops are requantise rows
// (mat.RequantizeRow) over their operands' codes: dequantize under the
// source's per-column scales, combine in float64, requantize under the
// destination's. dst may alias the source.

// addBiasI8 is f = bias + q·srcScale.
func addBiasI8(dst, src *mat.MatrixI8, bias []float64, srcScales, dstScales []float64) {
	for i := 0; i < src.Rows; i++ {
		mat.RequantizeRow(dst.Row(i), nil, nil, bias, src.Row(i), srcScales, dstScales, false)
	}
}

// reluI8 is f = max(q·srcScale, +0). Where source and destination column
// scales are equal — any column whose calibration maxabs was attained at
// a positive value — the code comes back as max(q, 0).
func reluI8(dst, src *mat.MatrixI8, srcScales, dstScales []float64) {
	for i := 0; i < src.Rows; i++ {
		mat.RequantizeRow(dst.Row(i), nil, nil, nil, src.Row(i), srcScales, dstScales, true)
	}
}

// addI8 is f = qa·sa + qb·sb: a's codes widen into the int32 scratch row
// acc (at least a.Cols long) to enter as the accumulator term.
func addI8(dst, a, b *mat.MatrixI8, sa, sb, sd []float64, acc []int32) {
	acc = acc[:a.Cols]
	for i := 0; i < a.Rows; i++ {
		for j, q := range a.Row(i) {
			acc[j] = int32(q)
		}
		mat.RequantizeRow(dst.Row(i), acc, sa, nil, b.Row(i), sb, sd, false)
	}
}

// concatI8 writes [srcs[0] | srcs[1] | …] into dst, each block f =
// q·srcScale under its slice of the destination scales. Destination
// columns are source columns (concat moves them, calibration sees the
// same values), so the scales match and every code comes back as it was.
func concatI8(dst *mat.MatrixI8, srcs []*mat.MatrixI8, cs [][]float64, sd []float64) {
	for i := 0; i < dst.Rows; i++ {
		out, off := dst.Row(i), 0
		for k, s := range srcs {
			mat.RequantizeRow(out[off:off+s.Cols], nil, nil, nil, s.Row(i), cs[k], sd[off:], false)
			off += s.Cols
		}
	}
}

// CalibrateScales runs the fp64 reference engine over a calibration
// batch and returns, per program value, the symmetric per-column
// activation scales (column maxabs/127 over the batch — the static
// "quantizer preset" an int8 machine needs; per-channel rather than
// per-tensor, so one wide-ranging feature does not cost every other
// column its resolution) plus the reference argmax labels the caller
// checks a quantized plan's agreement against. The reference machine is
// direct with the default worker budget; the fp64 kernels are
// bit-deterministic under banding, so the labels match a serial
// in-enclave fp64 run. It is planned from a copy of the program with
// every value kept, because the scales read every value after Run and
// the buffer plan would otherwise have reused their slots.
func CalibrateScales(p *Program, rows int, inputs []*mat.Matrix) ([][]float64, []int, error) {
	m, err := p.keepAll().NewMachine(Config{})
	if err != nil {
		return nil, nil, err
	}
	labels := make([]int, rows)
	out := m.Run(rows, inputs, labels)
	if !p.hasArgmax {
		out.ArgmaxRowsInto(labels)
	}
	scales := make([][]float64, len(p.vals))
	for i, v := range p.vals {
		if v.dead {
			continue
		}
		s := make([]float64, v.width)
		m.views[i].ColMaxAbsInto(s)
		for j, mx := range s {
			s[j] = mat.SymmetricScale(mx)
		}
		scales[i] = s
	}
	return scales, labels, nil
}
