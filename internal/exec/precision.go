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
// quantized operands and scratch. The boundary buffers (in receives the
// quantized inputs; out64 holds the dequantized output) are simulation
// conveniences of the untrusted caller side — BufferBytes/TileBytes
// charge only spill and tiles, matching what a real enclave would keep
// resident.
type quantized struct {
	spill []*mat.MatrixI8 // per value; nil for inputs and dead values
	views []mat.MatrixI8  // per value, bound per Run
	in    []*mat.MatrixI8 // per program input: boundary quantization buffer
	tile  *mat.MatrixI8   // staging tile (tiled mode)
	aux   []opAuxI8       // per op
	scr   scratchI8       // op-body headers and accumulator
	out64 *mat.Matrix     // dequantized output, bound as the output view

	// inEpoch names the immutable record whose blocks in currently holds
	// the codes of, over inRows rows (Machine.SetInputEpoch); nil when the
	// last quantised inputs were the caller's own. Holding the record by
	// pointer keeps its address from being recycled while it is the key.
	inEpoch any
	inRows  int

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
}

// planI8 allocates the code buffers of an I8 machine and quantizes the
// program's weights, called once from NewMachine after the shared
// planning.
func (m *Machine) planI8() error {
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
	for i, v := range p.vals {
		switch {
		case v.input >= 0:
			q.in[v.input] = mat.NewI8(p.MaxRows, v.width)
		case !v.dead && m.host[i] < 0:
			q.spill[i] = mat.NewI8(p.MaxRows+v.extra, v.width)
		}
	}
	for i, host := range m.host {
		if host >= 0 {
			q.spill[i] = q.spill[host].ViewRows(0, p.MaxRows, new(mat.MatrixI8))
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

// SetInputEpoch declares whose blocks the next Run's inputs are: epoch is
// the identity of an immutable record (core passes its public-half store
// registration) that those inputs belong to whole, or nil — the default —
// for inputs the caller owns and may have rewritten. An I8 machine whose
// boundary buffers already hold the codes of that same record, under its
// fixed scales and at the same height, skips the boundary quantisation of
// that Run; any other Run quantises as always. The declaration is spent
// by the Run it precedes, so a caller that forgets one pays a
// quantisation, never serves stale codes; nil also drops the machine's
// reference to the record it last quantised. Shares the machine's
// one-goroutine-at-a-time contract with Run; a no-op at fp64.
func (m *Machine) SetInputEpoch(epoch any) {
	if m.q == nil {
		return
	}
	m.epoch = epoch
	if epoch == nil {
		m.q.inEpoch = nil
	}
}

// bindI8 is Run's bind step on an I8 machine: quantize the (already
// shape-checked) inputs at the boundary into their code buffers — unless
// they are the record's whose codes the buffers hold (SetInputEpoch) —
// bind every intermediate's code view, and refresh each SpMM's value
// scale. With the recorder on it is one op-level span (quantise; Rows is
// the rows quantised, 0 when skipped).
func (m *Machine) bindI8(rows int, inputs []*mat.Matrix, recOn bool) {
	p, q := m.prog, m.q
	var t0 int64
	if recOn {
		t0 = m.rec.Clock()
	}
	epoch := m.epoch
	m.epoch = nil
	keep := epoch != nil && epoch == q.inEpoch && rows == q.inRows
	for i, v := range p.vals {
		switch {
		case v.input >= 0:
			q.in[v.input].ViewRows(0, rows, &q.views[i])
			if !keep {
				mat.QuantizeColumnsI8Into(&q.views[i], inputs[v.input], m.cfg.Scales[i])
			}
		case !v.dead:
			q.spill[i].ViewRows(0, rows+v.extra, &q.views[i])
		}
	}
	q.inEpoch, q.inRows = epoch, rows
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
// views, the same direct-or-staged destination, plus what int8 adds — the
// per-value scales, the int32 accumulator row and, on the wide head, the
// labels its epilogue writes. The in-enclave direct form is
// single-threaded by construction, so the int8 kernels are serial and take
// no worker budget.
func (m *Machine) runRowsI8(idx int, op *Op, lo, hi int, labels []int) {
	q, sc := m.q, m.cfg.Scales
	s := &q.scr
	srcs := s.srcPtrs[:len(op.Srcs)]
	for i, v := range op.Srcs {
		srcs[i] = q.views[v].ViewRows(lo, hi, &s.srcTiles[i])
	}
	if op.Kind == OpArgmax {
		// Code-space argmax, unless the head's epilogue labelled these
		// rows already.
		if labels != nil && q.wideHead < 0 {
			srcs[0].ArgmaxRowsScaledInto(labels[lo:hi], sc[op.Srcs[0]])
		}
		return
	}
	a := &q.aux[idx]
	dst := q.views[op.Dst].ViewRows(lo, hi, &s.dstTile)
	out := dst
	if m.tiled {
		s.tileView = mat.MatrixI8{Rows: hi - lo, Cols: dst.Cols, Data: q.tile.Data[:(hi-lo)*dst.Cols]}
		out = &s.tileView
	}
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
	if m.tiled {
		mat.CopyI8Into(dst, out)
	}
}

// The standalone (unfused) int8 element-wise ops are requantise rows
// (mat.RequantizeRow) over their operands' codes: dequantize under the
// source's per-column scales, combine in float64, requantize under the
// destination's. dst may alias the source.

// addBiasI8 is f = bias + q·srcScale.
func addBiasI8(dst, src *mat.MatrixI8, bias []float64, srcScales, dstScales []float64) {
	for i := 0; i < src.Rows; i++ {
		mat.RequantizeRow(dst.Row(i), nil, nil, bias, src.Row(i), srcScales, dstScales, false, false)
	}
}

// reluI8 is f = max(q·srcScale, +0). Where source and destination column
// scales are equal — any column whose calibration maxabs was attained at
// a positive value — the code comes back as max(q, 0).
func reluI8(dst, src *mat.MatrixI8, srcScales, dstScales []float64) {
	for i := 0; i < src.Rows; i++ {
		mat.RequantizeRow(dst.Row(i), nil, nil, nil, src.Row(i), srcScales, dstScales, true, false)
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
		mat.RequantizeRow(dst.Row(i), acc, sa, nil, b.Row(i), sb, sd, false, false)
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
			mat.RequantizeRow(out[off:off+s.Cols], nil, nil, nil, s.Row(i), cs[k], sd[off:], false, false)
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
// in-enclave fp64 run.
func CalibrateScales(p *Program, rows int, inputs []*mat.Matrix) ([][]float64, []int, error) {
	m, err := p.NewMachine(Config{})
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
