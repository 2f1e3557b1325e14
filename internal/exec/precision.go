package exec

import (
	"errors"
	"fmt"

	"gnnvault/internal/mat"
)

// Reduced-precision execution. A machine planned with Config.Elem F32 or
// I8 runs the same compiled program through the reduced kernel families
// (mat's fp32/int8 kernels, graph's narrowing/quantizing SpMM): weights
// are narrowed or column-quantized once at plan time, Run converts its
// float64 inputs at the ECALL boundary into pre-allocated typed buffers,
// every spill buffer and staging tile stores the reduced element, and
// the output is widened (or dequantized) back to float64 so callers see
// the same interface at every precision. Dequantization is folded into
// the existing epilogue — an int8 fused conv is still 2 ops — and the
// tiling/banding drivers are shared with the fp64 engine, so the
// within-precision bit-identity contract (tiled == direct ==
// tile-parallel) carries over: fp32 kernels keep the fp64 family's
// per-element order, int8 accumulates exactly in int32. fp32 is also
// bit-identical fused vs unfused, like fp64; int8 is not — fusion moves
// the requantization point (a fused bias adds to the exact accumulator,
// an unfused one to already-requantized codes), so each fusion state is
// internally bit-stable but the two legitimately differ.

// Elem is the element type of a machine's buffers, tiles and kernels.
type Elem uint8

// The element vocabulary. F64 is the zero value: existing Config
// literals plan the reference engine unchanged.
const (
	F64 Elem = iota // float64, the reference engine
	F32             // float32 kernels, 4-byte buffers/spill/payload
	I8              // symmetric int8 codes, int32 accumulation, 1-byte buffers
)

// Size returns the element width in bytes.
func (e Elem) Size() int {
	switch e {
	case F32:
		return 4
	case I8:
		return 1
	default:
		return 8
	}
}

// String names the element type for diagnostics and benchmark rows.
func (e Elem) String() string {
	switch e {
	case F32:
		return "fp32"
	case I8:
		return "int8"
	default:
		return "fp64"
	}
}

// ErrPrecisionUnsupported is returned when a reduced-precision machine
// is requested for a program containing ops without reduced kernels
// (OpFunc, whose opaque layer runs float64 internally).
var ErrPrecisionUnsupported = errors.New("exec: program contains ops without reduced-precision kernels")

// reduced holds a reduced-precision machine's typed state: value
// buffers, staging tiles, converted operands and scratch. The fp64
// boundary buffers (in-conversion is written into the typed in32/in8
// buffers directly; out64 holds the widened output) are simulation
// conveniences of the untrusted caller side — BufferBytes/TileBytes
// charge only the typed buffers, matching what a real enclave would keep
// resident.
type reduced struct {
	// F32 state.
	spill32 []*mat.Matrix32 // per value; nil for inputs and dead values
	views32 []mat.Matrix32  // per value, bound per Run
	in32    []*mat.Matrix32 // per program input: boundary conversion buffer
	tiles32 []*mat.Matrix32 // per worker staging tile (tiled mode)
	aux32   []opAux32       // per op: narrowed operands

	// I8 state.
	spill8 []*mat.MatrixI8
	views8 []mat.MatrixI8
	in8    []*mat.MatrixI8
	tiles8 []*mat.MatrixI8
	aux8   []opAux8

	scr   []reducedScratch // per tile worker (index 0 serves direct mode)
	out64 *mat.Matrix      // widened/dequantized output, bound as the output view

	// wideHead is the op index whose epilogue computes the program's
	// argmax labels "wide" — from the pre-requantization floats instead of
	// the output codes — or -1. Set for I8 machines when the argmax source
	// is produced by a MatMul/SpMM: the exact int32 accumulator separates
	// logits that requantization to shared int8 codes would collapse, the
	// dominant quantized-argmax error source on thin-margin heads.
	wideHead int
}

// opAux32 carries one op's narrowed operands.
type opAux32 struct {
	w    *mat.Matrix32 // OpMatMul weight
	b    []float32     // OpAddBias bias
	epiB []float32     // fused epilogue bias
}

// opAux8 carries one op's quantized operands and dequantization scales.
type opAux8 struct {
	// w holds an OpMatMul's folded weight codes: the source value's
	// per-column scales multiply into the weight's rows before column
	// quantization (the reduction runs over the source's columns, whose
	// scales vary inside the sum, so they must ride in the weight for the
	// MAC to stay int8×int8→int32).
	w *mat.MatrixI8
	// deq is the per-column combined dequantization scale fed to the
	// epilogue: the folded weight's column scales for MatMul,
	// source-column scale × value scale for SpMM (refreshed per Run).
	deq []float64
	// vs is the SpMM value scale of the current Run, derived from the
	// CSR's ValMaxAbs so re-induced subgraph operators stay calibrated.
	vs float64
	// cs holds the per-column source scales of an OpConcat, aligned to
	// Srcs.
	cs [][]float64
}

// reducedScratch is one tile worker's pre-allocated typed header set,
// mirroring workerScratch, plus the int32 accumulator row the int8
// kernels require (per worker, so tile-parallel runs never share one).
type reducedScratch struct {
	srcTiles32 []mat.Matrix32
	srcPtrs32  []*mat.Matrix32
	tileView32 mat.Matrix32
	dstTile32  mat.Matrix32
	resTile32  mat.Matrix32

	srcTiles8 []mat.MatrixI8
	srcPtrs8  []*mat.MatrixI8
	tileView8 mat.MatrixI8
	dstTile8  mat.MatrixI8
	resTile8  mat.MatrixI8

	acc []int32
}

func (r *reduced) tileBytes() int64 {
	n := int64(0)
	for _, t := range r.tiles32 {
		n += t.NumBytes()
	}
	for _, t := range r.tiles8 {
		n += t.NumBytes()
	}
	return n
}

func (r *reduced) bufferBytes() int64 {
	n := int64(0)
	for _, s := range r.spill32 {
		if s != nil {
			n += s.NumBytes()
		}
	}
	for _, s := range r.spill8 {
		if s != nil {
			n += s.NumBytes()
		}
	}
	return n
}

// planReduced allocates the typed buffers of an F32/I8 machine and
// converts the program's weights, called once from NewMachine after the
// shared (worker/tile) planning. Never called at F64.
func (m *Machine) planReduced() error {
	p, cfg := m.prog, m.cfg
	if !p.tileable {
		return ErrPrecisionUnsupported
	}
	r := &reduced{wideHead: -1}
	m.red = r
	if m.elem == I8 {
		if len(cfg.Scales) != len(p.vals) {
			return fmt.Errorf("exec: int8 machine needs %d per-value scale vectors, got %d (run CalibrateScales)", len(p.vals), len(cfg.Scales))
		}
		for i, v := range p.vals {
			if !v.dead && len(cfg.Scales[i]) != v.width {
				return fmt.Errorf("exec: int8 machine value %d needs %d per-column scales, got %d (run CalibrateScales)", i, v.width, len(cfg.Scales[i]))
			}
		}
		// Wide argmax head: when the argmax source comes straight out of a
		// MatMul/SpMM (the argmax op is always last — builders refuse ops
		// after it), label from that op's epilogue floats. A head produced
		// by an element-wise op keeps the code-space argmax.
		if p.hasArgmax {
			amSrc := p.ops[len(p.ops)-1].Srcs[0]
			for i := len(p.ops) - 2; i >= 0; i-- {
				op := &p.ops[i]
				if op.Dst != amSrc {
					continue
				}
				if op.Kind == OpMatMul || op.Kind == OpSpMM {
					r.wideHead = i
				}
				break
			}
		}
	}
	switch m.elem {
	case F32:
		r.spill32 = make([]*mat.Matrix32, len(p.vals))
		r.views32 = make([]mat.Matrix32, len(p.vals))
		r.in32 = make([]*mat.Matrix32, p.numInputs)
		for i, v := range p.vals {
			switch {
			case v.input >= 0:
				r.in32[v.input] = mat.New32(p.MaxRows, v.width)
			case !v.dead:
				r.spill32[i] = mat.New32(p.MaxRows+v.extra, v.width)
			}
		}
		if m.tiled {
			r.tiles32 = make([]*mat.Matrix32, m.tileWorkers)
			for w := range r.tiles32 {
				r.tiles32[w] = mat.New32(cfg.TileRows, p.maxWidth)
			}
		}
		r.aux32 = make([]opAux32, len(p.ops))
		for i := range p.ops {
			op, a := &p.ops[i], &r.aux32[i]
			if op.W != nil {
				a.w = mat.New32(op.W.Rows, op.W.Cols)
				mat.Convert32Into(a.w, op.W)
			}
			a.b = narrow(op.B)
			a.epiB = narrow(op.Epi.Bias)
		}
	case I8:
		r.spill8 = make([]*mat.MatrixI8, len(p.vals))
		r.views8 = make([]mat.MatrixI8, len(p.vals))
		r.in8 = make([]*mat.MatrixI8, p.numInputs)
		for i, v := range p.vals {
			switch {
			case v.input >= 0:
				r.in8[v.input] = mat.NewI8(p.MaxRows, v.width)
			case !v.dead:
				r.spill8[i] = mat.NewI8(p.MaxRows+v.extra, v.width)
			}
		}
		if m.tiled {
			r.tiles8 = make([]*mat.MatrixI8, m.tileWorkers)
			for w := range r.tiles8 {
				r.tiles8[w] = mat.NewI8(cfg.TileRows, p.maxWidth)
			}
		}
		r.aux8 = make([]opAux8, len(p.ops))
		for i := range p.ops {
			op, a := &p.ops[i], &r.aux8[i]
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
			case OpConcat:
				a.cs = make([][]float64, len(op.Srcs))
				for k, s := range op.Srcs {
					a.cs[k] = cfg.Scales[s]
				}
			}
		}
	}
	r.out64 = mat.New(p.MaxRows, p.vals[p.output].width)
	r.scr = make([]reducedScratch, m.tileWorkers)
	for w := range r.scr {
		s := &r.scr[w]
		switch m.elem {
		case F32:
			s.srcTiles32 = make([]mat.Matrix32, p.maxArity)
			s.srcPtrs32 = make([]*mat.Matrix32, p.maxArity)
		case I8:
			s.srcTiles8 = make([]mat.MatrixI8, p.maxArity)
			s.srcPtrs8 = make([]*mat.MatrixI8, p.maxArity)
			s.acc = make([]int32, p.maxWidth)
		}
	}
	return nil
}

// narrow converts a float64 vector to float32, nil for nil.
func narrow(v []float64) []float32 {
	if v == nil {
		return nil
	}
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// runReduced is Run's body for F32/I8 machines: convert inputs at the
// boundary, bind typed views, execute the op sequence through the shared
// direct/serial-tile/tile-parallel drivers, then widen (or dequantize)
// the output into the float64 view callers read. Allocation-free, like
// the F64 body.
func (m *Machine) runReduced(rows int, inputs []*mat.Matrix, labels []int) *mat.Matrix {
	p, r := m.prog, m.red
	busy0 := threadCPUNs()
	for i, v := range p.vals {
		switch {
		case v.input >= 0:
			in := inputs[v.input]
			if in.Rows != rows || in.Cols != v.width {
				panic(fmt.Sprintf("exec: input %d is %s, want %dx%d", v.input, in.Shape(), rows, v.width))
			}
			if m.elem == F32 {
				r.in32[v.input].ViewRows(0, rows, &r.views32[i])
				mat.Convert32Into(&r.views32[i], in)
			} else {
				r.in8[v.input].ViewRows(0, rows, &r.views8[i])
				mat.QuantizeColumnsI8Into(&r.views8[i], in, m.cfg.Scales[i])
			}
		case !v.dead:
			if m.elem == F32 {
				r.spill32[i].ViewRows(0, rows+v.extra, &r.views32[i])
			} else {
				r.spill8[i].ViewRows(0, rows+v.extra, &r.views8[i])
			}
		}
	}
	if m.elem == I8 {
		// Refresh each SpMM's value scale from the operator's current
		// contents: the subgraph path re-induces the CSR between runs, and
		// quantizing values on the fly under a per-run scale keeps every
		// execution mode (and every re-induction of the same rows)
		// bit-identical without materialising a second value array.
		for i := range p.ops {
			op := &p.ops[i]
			if op.Kind != OpSpMM {
				continue
			}
			a := &r.aux8[i]
			a.vs = mat.SymmetricScale(op.CSR.ValMaxAbs())
			ss := m.cfg.Scales[op.Srcs[0]]
			for j := range a.deq {
				a.deq[j] = a.vs * ss[j]
			}
		}
	}
	// Boundary conversion/quantization is this shard's own work; the
	// entry barrier below is not.
	m.busyNs += threadCPUNs() - busy0
	recOn := m.rec.Enabled()
	if recOn {
		m.profRuns++
	}
	if m.sync != nil {
		// Fleet entry barrier: every peer's typed views are bound (and
		// boundary-converted) before any shard starts reading across.
		if err := m.sync(); err != nil {
			panic(&fleetAbort{cause: err})
		}
	}
	for i := range p.ops {
		op := &p.ops[i]
		if op.Kind == OpSpMM && op.CSR.N != rows {
			panic(fmt.Sprintf("exec: SpMM operator over %d rows, run over %d", op.CSR.N, rows))
		}
		var t0 int64
		if recOn {
			t0 = m.rec.Clock()
		}
		if op.Kind == OpHalo {
			m.runHalo(op, rows)
			if recOn {
				m.opDone(i, op, rows, t0)
			}
			continue
		}
		opBusy0 := threadCPUNs()
		switch {
		case !m.tiled:
			if m.elem == F32 {
				m.runDirect32(i, op, rows, labels)
			} else {
				m.runDirectI8(i, op, rows, labels)
			}
		case m.tileWorkers > 1 && rows > m.cfg.TileRows:
			m.runOpParallel(i, op, rows, labels)
		default:
			for lo := 0; lo < rows; lo += m.cfg.TileRows {
				hi := min(lo+m.cfg.TileRows, rows)
				m.runTile(0, i, op, lo, hi, labels)
			}
		}
		m.busyNs += threadCPUNs() - opBusy0
		if recOn {
			m.opDone(i, op, rows, t0)
		}
	}
	outBusy0 := threadCPUNs()
	out := &m.views[p.output]
	r.out64.ViewRows(0, rows, out)
	if m.elem == F32 {
		mat.Widen32Into(out, &r.views32[p.output])
	} else {
		mat.DequantizeColumnsI8Into(out, &r.views8[p.output], m.cfg.Scales[p.output])
	}
	m.busyNs += threadCPUNs() - outBusy0
	return out
}

// runDirect32 executes one op at full height on the fp32 views, the F32
// counterpart of runDirect.
func (m *Machine) runDirect32(idx int, op *Op, rows int, labels []int) {
	r := m.red
	a := &r.aux32[idx]
	w := m.cfg.Workers
	var res *mat.Matrix32
	if op.Epi.Res >= 0 {
		res = &r.views32[op.Epi.Res]
	}
	switch op.Kind {
	case OpMatMul:
		mat.MatMul32BiasReLUInto(&r.views32[op.Dst], &r.views32[op.Srcs[0]], a.w, a.epiB, res, op.Epi.ReLU, w)
	case OpSpMM:
		op.CSR.MulDense32BiasReLUInto(&r.views32[op.Dst], &r.views32[op.Srcs[0]], a.epiB, res, op.Epi.ReLU, w)
	case OpAddBias:
		mat.AddBias32Into(&r.views32[op.Dst], &r.views32[op.Srcs[0]], a.b)
	case OpReLU:
		mat.ReLU32Into(&r.views32[op.Dst], &r.views32[op.Srcs[0]])
	case OpAdd:
		mat.Add32Into(&r.views32[op.Dst], &r.views32[op.Srcs[0]], &r.views32[op.Srcs[1]])
	case OpConcat:
		ptrs := r.scr[0].srcPtrs32
		for i, s := range op.Srcs {
			ptrs[i] = &r.views32[s]
		}
		mat.HConcat32Into(&r.views32[op.Dst], ptrs[:len(op.Srcs)]...)
	case OpArgmax:
		if labels != nil {
			r.views32[op.Srcs[0]].ArgmaxRowsInto(labels[:rows])
		}
	}
}

// runTile32 executes rows [lo, hi) of one op on tile worker w over the
// fp32 buffers, the F32 counterpart of runTile.
func (m *Machine) runTile32(w, idx int, op *Op, lo, hi int, labels []int) {
	r := m.red
	s := &r.scr[w]
	if op.Kind == OpArgmax {
		if labels != nil {
			r.views32[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles32[0])
			s.srcTiles32[0].ArgmaxRowsInto(labels[lo:hi])
		}
		return
	}
	a := &r.aux32[idx]
	width := m.prog.vals[op.Dst].width
	s.tileView32.Rows = hi - lo
	s.tileView32.Cols = width
	s.tileView32.Data = r.tiles32[w].Data[:(hi-lo)*width]
	var res *mat.Matrix32
	if op.Epi.Res >= 0 {
		r.views32[op.Epi.Res].ViewRows(lo, hi, &s.resTile32)
		res = &s.resTile32
	}
	switch op.Kind {
	case OpMatMul:
		r.views32[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles32[0])
		mat.MatMul32BiasReLUInto(&s.tileView32, &s.srcTiles32[0], a.w, a.epiB, res, op.Epi.ReLU, 1)
	case OpSpMM:
		op.CSR.MulDense32BiasReLURangeInto(&s.tileView32, &r.views32[op.Srcs[0]], lo, hi, a.epiB, res, op.Epi.ReLU)
	case OpAddBias:
		r.views32[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles32[0])
		mat.AddBias32Into(&s.tileView32, &s.srcTiles32[0], a.b)
	case OpReLU:
		r.views32[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles32[0])
		mat.ReLU32Into(&s.tileView32, &s.srcTiles32[0])
	case OpAdd:
		r.views32[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles32[0])
		r.views32[op.Srcs[1]].ViewRows(lo, hi, &s.srcTiles32[1])
		mat.Add32Into(&s.tileView32, &s.srcTiles32[0], &s.srcTiles32[1])
	case OpConcat:
		for i, src := range op.Srcs {
			r.views32[src].ViewRows(lo, hi, &s.srcTiles32[i])
			s.srcPtrs32[i] = &s.srcTiles32[i]
		}
		mat.HConcat32Into(&s.tileView32, s.srcPtrs32[:len(op.Srcs)]...)
	}
	r.views32[op.Dst].ViewRows(lo, hi, &s.dstTile32)
	mat.Copy32Into(&s.dstTile32, &s.tileView32)
}

// runDirectI8 executes one op at full height on the int8 views, the I8
// counterpart of runDirect. The in-enclave direct form is
// single-threaded by construction, so the int8 kernels are serial and
// worker budgets are ignored.
func (m *Machine) runDirectI8(idx int, op *Op, rows int, labels []int) {
	r := m.red
	a := &r.aux8[idx]
	var res *mat.MatrixI8
	var resScales []float64
	if op.Epi.Res >= 0 {
		res = &r.views8[op.Epi.Res]
		resScales = m.cfg.Scales[op.Epi.Res]
	}
	var wide []int
	if idx == r.wideHead && labels != nil {
		wide = labels[:rows]
	}
	switch op.Kind {
	case OpMatMul:
		mat.MatMulI8EpilogueInto(&r.views8[op.Dst], &r.views8[op.Srcs[0]], a.w, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, m.cfg.Scales[op.Dst], r.scr[0].acc, wide)
	case OpSpMM:
		op.CSR.MulDenseI8EpilogueRangeInto(&r.views8[op.Dst], &r.views8[op.Srcs[0]], 0, rows, a.vs, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, m.cfg.Scales[op.Dst], r.scr[0].acc, wide)
	case OpAddBias:
		addBiasI8(&r.views8[op.Dst], &r.views8[op.Srcs[0]], op.B, m.cfg.Scales[op.Srcs[0]], m.cfg.Scales[op.Dst])
	case OpReLU:
		reluI8(&r.views8[op.Dst], &r.views8[op.Srcs[0]], m.cfg.Scales[op.Srcs[0]], m.cfg.Scales[op.Dst])
	case OpAdd:
		addI8(&r.views8[op.Dst], &r.views8[op.Srcs[0]], &r.views8[op.Srcs[1]],
			m.cfg.Scales[op.Srcs[0]], m.cfg.Scales[op.Srcs[1]], m.cfg.Scales[op.Dst], r.scr[0].acc)
	case OpConcat:
		ptrs := r.scr[0].srcPtrs8
		for i, s := range op.Srcs {
			ptrs[i] = &r.views8[s]
		}
		concatI8(&r.views8[op.Dst], ptrs[:len(op.Srcs)], a.cs, m.cfg.Scales[op.Dst])
	case OpArgmax:
		if labels != nil && r.wideHead < 0 {
			r.views8[op.Srcs[0]].ArgmaxRowsScaledInto(labels[:rows], m.cfg.Scales[op.Srcs[0]])
		}
	}
}

// runTileI8 executes rows [lo, hi) of one op on tile worker w over the
// int8 buffers, the I8 counterpart of runTile. Each worker owns its
// int32 accumulator row, so tile-parallel spans never share one.
func (m *Machine) runTileI8(w, idx int, op *Op, lo, hi int, labels []int) {
	r := m.red
	s := &r.scr[w]
	if op.Kind == OpArgmax {
		if labels != nil && r.wideHead < 0 {
			r.views8[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles8[0])
			s.srcTiles8[0].ArgmaxRowsScaledInto(labels[lo:hi], m.cfg.Scales[op.Srcs[0]])
		}
		return
	}
	a := &r.aux8[idx]
	width := m.prog.vals[op.Dst].width
	s.tileView8.Rows = hi - lo
	s.tileView8.Cols = width
	s.tileView8.Data = r.tiles8[w].Data[:(hi-lo)*width]
	var res *mat.MatrixI8
	var resScales []float64
	if op.Epi.Res >= 0 {
		r.views8[op.Epi.Res].ViewRows(lo, hi, &s.resTile8)
		res = &s.resTile8
		resScales = m.cfg.Scales[op.Epi.Res]
	}
	dstScales := m.cfg.Scales[op.Dst]
	var wide []int
	if idx == r.wideHead && labels != nil {
		wide = labels[lo:hi]
	}
	switch op.Kind {
	case OpMatMul:
		r.views8[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles8[0])
		mat.MatMulI8EpilogueInto(&s.tileView8, &s.srcTiles8[0], a.w, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, dstScales, s.acc, wide)
	case OpSpMM:
		op.CSR.MulDenseI8EpilogueRangeInto(&s.tileView8, &r.views8[op.Srcs[0]], lo, hi, a.vs, a.deq, op.Epi.Bias, res, resScales, op.Epi.ReLU, dstScales, s.acc, wide)
	case OpAddBias:
		r.views8[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles8[0])
		addBiasI8(&s.tileView8, &s.srcTiles8[0], op.B, m.cfg.Scales[op.Srcs[0]], dstScales)
	case OpReLU:
		r.views8[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles8[0])
		reluI8(&s.tileView8, &s.srcTiles8[0], m.cfg.Scales[op.Srcs[0]], dstScales)
	case OpAdd:
		r.views8[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles8[0])
		r.views8[op.Srcs[1]].ViewRows(lo, hi, &s.srcTiles8[1])
		addI8(&s.tileView8, &s.srcTiles8[0], &s.srcTiles8[1],
			m.cfg.Scales[op.Srcs[0]], m.cfg.Scales[op.Srcs[1]], dstScales, s.acc)
	case OpConcat:
		for i, src := range op.Srcs {
			r.views8[src].ViewRows(lo, hi, &s.srcTiles8[i])
			s.srcPtrs8[i] = &s.srcTiles8[i]
		}
		concatI8(&s.tileView8, s.srcPtrs8[:len(op.Srcs)], a.cs, dstScales)
	}
	r.views8[op.Dst].ViewRows(lo, hi, &s.dstTile8)
	mat.CopyI8Into(&s.dstTile8, &s.tileView8)
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
