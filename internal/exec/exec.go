// Package exec is the tiled streaming execution engine behind every
// GNNVault inference path: a Backbone/Rectifier forward pass is compiled
// once into a flat op sequence (dense MatMul, sparse SpMM over a CSR row
// range, attention aggregate over a CSR structure, bias add, ReLU,
// element-wise add, horizontal concat, row argmax), and a Machine then
// executes that program either directly — every value slot resident, the
// values sharing slots by liveness (buffers.go) — or row tile by row tile
// under a fixed working-set bound. There is no opaque op: every conv kind
// (GCN, GraphSAGE, GAT) is written in this vocabulary, so every program
// tiles, quantises, sizes itself and declares all the memory it touches.
//
// The tiled mode is what makes full-graph plans admissible on a real
// enclave: a layer's full activations live in *spilled* host buffers
// (untrusted memory — a deployment would seal them the way SGX paging
// encrypts evicted EPC pages), while the enclave's Page Cache is charged
// only for the one tile-sized staging buffer every op writes through. The
// enclave footprint of an n-node forward pass therefore drops from
// O(n × maxWidth) to O(tileRows × maxWidth), at the price of streaming
// each activation across the boundary once per op.
//
// Row tiling works because every op is row-local in its output: output
// rows [lo, hi) of a MatMul/bias/ReLU/concat read only input rows
// [lo, hi), and a SpMM's or attention aggregate's output rows read
// arbitrary rows of the operands they gather — which is exactly why
// execution is op-major (each op finishes all tiles before the next op
// starts), so a gather always finds its full input spilled.
//
// The fusion pass (Program.Fused) makes the engine fast on top of
// admissible: it folds bias/residual/ReLU chains into their producing
// product op as an Epilogue and erases the fused-away intermediates, so a
// GCN layer flushes one tile instead of three and the dead values cost no
// spill buffers at all. A tiled machine also chains a product into the
// MatMul right after it when that MatMul is its only reader (fuse.go): the
// pair runs band by band inside the enclave and only the MatMul's output
// is flushed.
//
// There is one interpreter. Machine.Run is the only op loop — validate,
// bind, fleet entry barrier, then per op a halo gather, the single span
// [0, rows) (direct) or serial tiles, inside one span bracket, then
// finish — and each element type has one op body (runRowsF64, runRowsI8)
// that executes rows [lo, hi) of an op: a direct machine hands it the
// whole batch and it writes the value's own view; a tiled machine hands
// it a tile and it writes the staging tile, then flushes. An int8 machine
// (Config.Elem I8, precision.go) differs from the fp64 reference in three
// hooks only: bind quantizes the inputs and refreshes each SpMM's per-run
// value scale, the op body works on codes, scales, an int32 accumulator
// and the wide argmax head, and finish dequantizes the output view. The
// element type is a field fixed at plan time and every choice on it is a
// plain branch, so Run stays allocation-free.
//
// A Machine runs on the goroutine that calls Run and starts none of its
// own: an in-enclave machine is one enclave thread, the one its ECALL
// entered on and is billed for. Multi-thread enclave execution is a
// Fleet of shard machines, each on its own ECALL. One Machine belongs to
// one goroutine at a time; its Run performs zero heap allocations, which
// the serving hot paths rely on.
package exec

import (
	"fmt"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
)

// OpKind enumerates the primitive operations a compiled program is made of.
type OpKind uint8

// The op vocabulary. Every kind is row-decomposable (see the package
// comment), so every program runs in every mode at either element type.
const (
	OpMatMul  OpKind = iota // dst = src · W
	OpSpMM                  // dst = CSR · src (src must be fully materialised)
	OpAddBias               // dst = src + b, in place (dst aliases src)
	OpReLU                  // dst = max(src, 0)
	OpAdd                   // dst = srcA + srcB
	OpConcat                // dst = [src0 | src1 | …]
	OpArgmax                // labels[i] = argmax(src row i); terminal, no dst
	OpAttn                  // dst[i] = Σⱼ softmaxⱼ(LeakyReLU(s[i] + t[j])) · z[j] over a CSR structure
	OpHalo                  // dst = [src | peer boundary rows], fleet exchange
)

// String names the op kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpMatMul:
		return "matmul"
	case OpSpMM:
		return "spmm"
	case OpAddBias:
		return "addbias"
	case OpReLU:
		return "relu"
	case OpAdd:
		return "add"
	case OpConcat:
		return "concat"
	case OpArgmax:
		return "argmax"
	case OpAttn:
		return "attn"
	case OpHalo:
		return "halo"
	case opQuantise:
		return "quantise"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one instruction of a compiled program. Dst and Srcs index the
// program's value table; the remaining fields are the operands one kind
// each needs.
type Op struct {
	Kind OpKind
	Dst  int   // destination value (-1 for OpArgmax)
	Srcs []int // source values, in kernel order

	// Epi is the fused element-wise tail of a MatMul/SpMM/Attn op. Builders
	// emit ops without one (Res == -1); the fusion pass (Program.Fused)
	// attaches them.
	Epi Epilogue

	W *mat.Matrix // OpMatMul weight
	B []float64   // OpAddBias bias
	// CSR is the sparse operator of an OpSpMM, or the structure an OpAttn
	// aggregates over (its stored values are not read). The header pointer
	// is captured at compile time but its *contents* may change between
	// runs (the subgraph path re-induces into a stable header per query);
	// the only requirement is CSR.N == rows at Run time.
	CSR *graph.NormAdjacency
	// slope is the LeakyReLU negative slope of an OpAttn's scores.
	slope float64
	// Halo lists, for an OpHalo, the peer rows gathered below the local
	// rows of src: dst row rows+k is peer Halo[k].Shard's local row
	// Halo[k].Row of the same value. Executing one requires a Fleet.
	Halo []HaloSlot
}

// HaloSlot addresses one boundary-node activation in a sharded fleet:
// the shard owning the row and the row's index local to that shard.
type HaloSlot struct {
	Shard int
	Row   int
}

// value is one entry of the program's value table.
type value struct {
	width int
	input int // ordinal among Run's inputs, or -1 for intermediates
	// keep pins the value across fusion and the buffer plan: callers will
	// read it through Machine.Value, so the fusion pass must neither fold
	// it away nor eliminate its buffer, and no later value may reuse its
	// slot.
	keep bool
	// dead marks a value orphaned by fusion: no surviving op touches it,
	// machines allocate no buffer for it.
	dead bool
	// chained marks, in a tiled machine's program, a value its producer
	// hands to the next op, a MatMul, band by band (Program.chained): it
	// keeps its scales but has no buffer.
	chained bool
	// extra is the halo row count of an OpHalo destination: its buffer
	// holds MaxRows local rows plus extra gathered peer rows, and views
	// bind rows+extra high so the shard's rectangular SpMM can consume
	// the halo-extended operand.
	extra int
}

// Program is a compiled forward pass: a value table (external inputs plus
// intermediates) and the flat op sequence that connects them. Programs are
// immutable once built; many Machines may be planned from one Program.
type Program struct {
	// MaxRows is the largest batch height any machine of this program can
	// execute; buffers are sized for it, Run may use fewer rows.
	MaxRows int

	vals      []value
	ops       []Op
	numInputs int
	output    int
	hasArgmax bool
	hasHalo   bool
	maxWidth  int
	maxArity  int
	// chainWidth is the widest chained value, 0 when none is (the
	// unchained programs of builders, Fused and direct machines).
	chainWidth int
}

// haloHosts returns, per value, the halo destination that hosts it — the
// value gathered into dst by an OpHalo is, row for row, the first
// MaxRows rows of dst (a halo program runs at full height only), so
// machines make its buffer a view of them instead of a second buffer
// copied over every run — or -1. An input is never hosted: it aliases
// the caller's matrix, and neither is a halo destination gathered
// again. A value gathered twice is hosted by its first halo op and copied
// by the others.
func (p *Program) haloHosts() []int {
	hosts := make([]int, len(p.vals))
	for i := range hosts {
		hosts[i] = -1
	}
	for i := range p.ops {
		if op := &p.ops[i]; op.Kind == OpHalo {
			if src := op.Srcs[0]; p.vals[src].input < 0 && p.vals[src].extra == 0 && hosts[src] < 0 {
				hosts[src] = op.Dst
			}
		}
	}
	return hosts
}

// MaxWidth returns the widest value in the program — the column count the
// tile staging buffer must accommodate.
func (p *Program) MaxWidth() int { return p.maxWidth }

// Ops returns the compiled op sequence (shared, not a copy; read-only).
func (p *Program) Ops() []Op { return p.ops }

// Builder assembles a Program. Methods return value ids to wire into later
// ops; Build freezes the sequence. Builders are single-use.
type Builder struct {
	p    Program
	last int
}

// NewBuilder starts a program for batches of up to maxRows rows. Zero
// is legal — an empty shard of a partitioned fleet still lowers and runs
// a (trivially empty) program so it participates in the fleet barriers.
func NewBuilder(maxRows int) *Builder {
	if maxRows < 0 {
		panic(fmt.Sprintf("exec: negative maxRows %d", maxRows))
	}
	return &Builder{p: Program{MaxRows: maxRows}, last: -1}
}

// newValue appends a value of the given width to the table.
func (b *Builder) newValue(width, input int) int {
	if width <= 0 {
		panic(fmt.Sprintf("exec: non-positive value width %d", width))
	}
	b.p.vals = append(b.p.vals, value{width: width, input: input})
	if width > b.p.maxWidth {
		b.p.maxWidth = width
	}
	id := len(b.p.vals) - 1
	b.last = id
	return id
}

// width returns the declared width of value v, panicking on bad ids.
func (b *Builder) width(v int) int {
	if v < 0 || v >= len(b.p.vals) {
		panic(fmt.Sprintf("exec: unknown value %d", v))
	}
	return b.p.vals[v].width
}

// push appends an op, tracking the program's maximum source arity.
func (b *Builder) push(op Op) {
	if b.p.hasArgmax {
		panic("exec: ops after Argmax")
	}
	op.Epi.Res = -1
	b.p.ops = append(b.p.ops, op)
	if len(op.Srcs) > b.p.maxArity {
		b.p.maxArity = len(op.Srcs)
	}
}

// Keep pins a value against the fusion pass and the buffer plan: the
// caller will read it via Machine.Value after Run (backbone block
// embeddings, typically), so Fused must keep it materialised even when
// its only in-program consumer could otherwise absorb it, and its slot
// holds it to the end of the run.
func (b *Builder) Keep(v int) {
	b.width(v) // id check
	b.p.vals[v].keep = true
}

// Input declares the next external input (width columns) and returns its
// value id. Run consumes inputs in declaration order.
func (b *Builder) Input(width int) int {
	id := b.newValue(width, b.p.numInputs)
	b.p.numInputs++
	return id
}

// MatMul appends dst = src · w and returns dst.
func (b *Builder) MatMul(src int, w *mat.Matrix) int {
	if got := b.width(src); got != w.Rows {
		panic(fmt.Sprintf("exec: MatMul src width %d != weight rows %d", got, w.Rows))
	}
	dst := b.newValue(w.Cols, -1)
	b.push(Op{Kind: OpMatMul, Dst: dst, Srcs: []int{src}, W: w})
	return dst
}

// SpMM appends dst = csr · src and returns dst. The csr header is captured
// by pointer; its contents may be re-induced between runs as long as its N
// matches the run's row count.
func (b *Builder) SpMM(csr *graph.NormAdjacency, src int) int {
	dst := b.newValue(b.width(src), -1)
	b.push(Op{Kind: OpSpMM, Dst: dst, Srcs: []int{src}, CSR: csr})
	return dst
}

// AddBias appends src += bias (broadcast across rows), in place, and
// returns src. In-place is safe because a bias add always consumes a value
// this program just produced; biasing an external input is rejected.
func (b *Builder) AddBias(src int, bias []float64) int {
	if b.p.vals[src].input >= 0 {
		panic("exec: AddBias on an external input")
	}
	if got := b.width(src); got != len(bias) {
		panic(fmt.Sprintf("exec: AddBias width %d != bias length %d", got, len(bias)))
	}
	b.push(Op{Kind: OpAddBias, Dst: src, Srcs: []int{src}, B: bias})
	b.last = src
	return src
}

// ReLU appends dst = max(src, 0) and returns dst.
func (b *Builder) ReLU(src int) int {
	dst := b.newValue(b.width(src), -1)
	b.push(Op{Kind: OpReLU, Dst: dst, Srcs: []int{src}})
	return dst
}

// Add appends dst = a + b (element-wise; equal widths) and returns dst.
func (b *Builder) Add(a, c int) int {
	if b.width(a) != b.width(c) {
		panic(fmt.Sprintf("exec: Add width mismatch %d != %d", b.width(a), b.width(c)))
	}
	dst := b.newValue(b.width(a), -1)
	b.push(Op{Kind: OpAdd, Dst: dst, Srcs: []int{a, c}})
	return dst
}

// Concat appends dst = [srcs[0] | srcs[1] | …] and returns dst.
func (b *Builder) Concat(srcs ...int) int {
	if len(srcs) == 0 {
		panic("exec: Concat of nothing")
	}
	w := 0
	for _, s := range srcs {
		w += b.width(s)
	}
	dst := b.newValue(w, -1)
	b.push(Op{Kind: OpConcat, Dst: dst, Srcs: append([]int{}, srcs...)})
	return dst
}

// Halo appends dst = [src | gathered peer rows]: dst's first rows rows
// copy src and the next len(slots) rows gather, in slot order, the named
// boundary activations of the same value from peer shards of a Fleet.
// The dst value is rows+len(slots) high at run time — the halo-extended
// operand a shard's rectangular SpMM consumes. The op is emitted even
// with zero slots (a shard whose rows are all-local still synchronises
// with its peers — every shard of a fleet must make the same barrier
// calls per run); lowerings omit Halo entirely only when no shard of the
// partition has any halo column.
func (b *Builder) Halo(src int, slots []HaloSlot) int {
	dst := b.newValue(b.width(src), -1)
	b.p.vals[dst].extra = len(slots)
	b.push(Op{Kind: OpHalo, Dst: dst, Srcs: []int{src}, Halo: append([]HaloSlot{}, slots...)})
	b.p.hasHalo = true
	return dst
}

// Attn appends the attention aggregate
//
//	dst[i] = Σⱼ αᵢⱼ · z[j],  αᵢ· = softmaxⱼ(LeakyReLU(s[i] + t[j]))
//
// over the column indices j of row i of csr — an SpMM whose values are
// computed instead of loaded — and returns dst (z's width). s and t are
// the width-1 source and target scores; slope is the LeakyReLU negative
// slope. Like SpMM it reads z (and t) whole and s by row, and it carries
// the same fusable epilogue. See attn.go for the contract.
func (b *Builder) Attn(csr *graph.NormAdjacency, s, t, z int, slope float64) int {
	if b.width(s) != 1 || b.width(t) != 1 {
		panic(fmt.Sprintf("exec: Attn scores are %d and %d wide, want 1", b.width(s), b.width(t)))
	}
	dst := b.newValue(b.width(z), -1)
	b.push(Op{Kind: OpAttn, Dst: dst, Srcs: []int{s, t, z}, CSR: csr, slope: slope})
	return dst
}

// Argmax appends the terminal label reduction over src. After Argmax the
// program is complete; src also becomes the program's output value.
func (b *Builder) Argmax(src int) {
	b.width(src) // id check
	b.push(Op{Kind: OpArgmax, Dst: -1, Srcs: []int{src}})
	b.p.hasArgmax = true
	b.last = src
}

// Output names v the program's result, for a program without Argmax whose
// result is not the value it produced last — what comes after v is then
// live only as far as something kept reads it. Call it last before Build.
func (b *Builder) Output(v int) {
	b.width(v) // id check
	if b.p.hasArgmax {
		panic("exec: Output after Argmax")
	}
	b.last = v
}

// Build freezes the program. The output value is the Argmax source when
// one was appended, the value named by Output when one was, otherwise the
// most recently produced value.
func (b *Builder) Build() *Program {
	if b.last < 0 {
		panic("exec: empty program")
	}
	p := b.p
	p.output = b.last
	b.p = Program{} // poison the builder against reuse
	return &p
}

// Config tunes one machine planned from a program.
type Config struct {
	// TileRows selects tiled streaming execution with the given tile
	// height (clamped to MaxRows); 0 selects direct execution, where every
	// value buffer is resident and ops run at full height.
	TileRows int
	// Elem selects the element type the machine's value buffers, staging
	// tiles and kernels use. The zero value F64 is the reference engine;
	// I8 plans a quantized machine: weights are column-quantized here at
	// plan time, Run quantizes its float64 inputs at the boundary, and
	// every byte of buffer, tile, spill and payload accounting prices one
	// byte per element. An I8 machine requires Scales.
	Elem Elem
	// Scales holds, per program value, the symmetric per-column (per
	// feature channel) activation scales of that value. Required when Elem
	// is I8 (exec.CalibrateScales produces it) and ignored otherwise; dead
	// values may carry nil.
	Scales [][]float64
	// Workers is a direct machine's per-kernel parallelism budget
	// (mat.ResolveWorkers semantics: 0 = GOMAXPROCS, 1 = inline). An
	// in-enclave machine must use 1: the enclave runs on the one thread
	// its ECALL entered on. Tiled machines ignore it; their per-tile
	// kernels always run inline.
	Workers int
	// Recorder receives one obs.SpanOp span per executed op (kind, rows,
	// tile count, flush bytes, duration) and feeds the machine's per-op
	// profile. Nil means obs.Nop: probes stay, recording doesn't, and Run
	// keeps its zero-allocation guarantee either way.
	Recorder obs.Recorder
}

// Machine executes one program with pre-sized buffers. Direct machines
// hold their value slots resident (BufferBytes is the enclave charge when
// the machine runs in-enclave); tiled machines hold full intermediates in
// spilled (untrusted) slots and stage every op's output through one
// tile-sized buffer (TileBytes is the enclave charge). One machine
// belongs to one goroutine at a time.
type Machine struct {
	prog  *Program
	cfg   Config
	elem  Elem // element type of buffers, tiles and kernels
	tiled bool // TileRows > 0: op-major streaming execution

	// F64 state. An I8 machine keeps its values in q instead and binds only
	// the output's entry of views, to the dequantized result.
	spill []*mat.Matrix // per value, over its slot; nil for inputs, dead and chained values
	// host is, per value, the halo destination whose buffer's first
	// MaxRows rows are the value's own buffer, or -1 (haloHosts): a
	// gathered value's producer writes the local rows of the
	// halo-extended operand in place. Either element type.
	host  []int
	tile  *mat.Matrix  // tiled mode: the EPC-resident staging buffer
	views []mat.Matrix // per value: full-rows header, bound per Run

	// q holds the code buffers and quantized operands of an I8 machine;
	// nil at F64.
	q *quantized

	// Fleet wiring for halo-exchange programs: peers[s] is shard s's
	// machine (including this one at its own index) and sync is the
	// fleet barrier, called after input binding and again before each
	// halo op so every peer's gathered value is complete. A non-nil
	// error from sync means the pass was poisoned (a peer aborted); the
	// machine unwinds by panicking with *fleetAbort, which Fleet.RunShard
	// recovers into an error. Both fields are set by NewFleet; nil
	// outside a fleet.
	peers []*Machine
	sync  func() error

	// bufBytes is the size of the value slots the buffer plan allocated,
	// at the machine's element width (BufferBytes).
	bufBytes int64

	scratch scratchF64 // F64 op-body headers
	// attnRow is the length of the attention-coefficient row the scratch
	// holds (attn.go): the longest row of any OpAttn structure, 0 without
	// the op. Enclave-resident working memory at either element type, so
	// BufferBytes and TileBytes both count it.
	attnRow int

	// Flight-recorder state. rec is never nil (obs.Nop by default); trace
	// and parent are the IDs the next Run's op spans attach to, bound by
	// SetTrace from the caller that owns the enclosing query span.
	rec    obs.Recorder
	trace  uint64
	parent uint64

	// epoch is the record the next Run's inputs were declared to belong
	// to (SetInputEpoch); spent by that Run's bind step. inEpoch is the
	// record the last Run bound, over inRows rows, or nil when it bound the
	// caller's own inputs. Holding the record by pointer keeps its address
	// from being recycled while it is the key.
	epoch   any
	inEpoch any
	inRows  int
}

// scratchF64 is the fp64 op body's pre-allocated header set.
type scratchF64 struct {
	srcTiles []mat.Matrix  // rows [lo, hi) of each source value
	srcPtrs  []*mat.Matrix // the same, as the kernels' argument list
	tileView mat.Matrix    // staging header over the tile
	dstTile  mat.Matrix    // rows [lo, hi) of the destination value
	resTile  mat.Matrix    // rows [lo, hi) of the fused residual
	alpha    []float64     // attention coefficients of the row in hand

	// Chaining (fuse.go): the band scratch, its header, the chained
	// MatMul's one-source argument list over it, and the band's rows of
	// the staging tile.
	band    []float64
	bandMat mat.Matrix
	bandSrc [1]*mat.Matrix
	bandOut mat.Matrix
}

// NewMachine plans a machine for the program: the buffer plan assigns
// every value a slot (buffers.go), and all slots (and, when tiling, the
// staging tile) are allocated here, never during Run.
func (p *Program) NewMachine(cfg Config) (*Machine, error) {
	if cfg.TileRows < 0 {
		return nil, fmt.Errorf("exec: negative TileRows %d", cfg.TileRows)
	}
	if cfg.TileRows > p.MaxRows {
		cfg.TileRows = p.MaxRows
	}
	if cfg.Elem > I8 {
		return nil, fmt.Errorf("exec: unknown element type %d", cfg.Elem)
	}
	if cfg.TileRows > 0 {
		p = p.chained()
	}
	m := &Machine{
		prog:    p,
		cfg:     cfg,
		elem:    cfg.Elem,
		tiled:   cfg.TileRows > 0,
		views:   make([]mat.Matrix, len(p.vals)),
		rec:     cfg.Recorder,
		attnRow: p.maxAttnRow(),
	}
	if m.rec == nil {
		m.rec = obs.Nop
	}
	m.host = p.haloHosts()
	bp := p.planBuffers(m.host)
	for _, n := range bp.sizes {
		m.bufBytes += int64(n) * int64(m.elem.Size())
	}
	if m.elem == I8 {
		if err := m.planI8(bp); err != nil {
			return nil, err
		}
		return m, nil
	}
	data, err := allocSlots[float64](p, bp, m.host)
	if err != nil {
		return nil, err
	}
	m.spill = make([]*mat.Matrix, len(p.vals))
	for i, k := range bp.slot {
		if k >= 0 {
			m.spill[i] = &mat.Matrix{Rows: p.MaxRows + p.vals[i].extra, Cols: p.vals[i].width, Data: data[i]}
		}
	}
	if m.tiled {
		m.tile = mat.New(cfg.TileRows, p.maxWidth)
	}
	m.scratch = scratchF64{
		srcTiles: make([]mat.Matrix, p.maxArity),
		srcPtrs:  make([]*mat.Matrix, p.maxArity),
		alpha:    make([]float64, m.attnRow),
		band:     make([]float64, min(chainBand, cfg.TileRows)*p.chainWidth),
	}
	return m, nil
}

// TileRows returns the tile height (0 for direct machines).
func (m *Machine) TileRows() int { return m.cfg.TileRows }

// TileBytes returns the staging-buffer footprint — one tile at the
// machine's element width, plus the attention scratch row and the chaining
// band scratch — the only working memory a tiled run keeps
// enclave-resident (Program.TileRowsWithin inverts it).
func (m *Machine) TileBytes() int64 {
	n := int64(m.attnRow)*8 + m.prog.bandBytes(m.cfg.TileRows, m.elem)
	if m.tile != nil {
		n += m.tile.NumBytes()
	}
	if m.q != nil && m.q.tile != nil {
		n += m.q.tile.NumBytes()
	}
	return n
}

// BufferBytes returns the footprint of the machine's value slots
// (buffers.go) at the machine's element width plus the attention scratch
// row — the enclave charge of a *direct* in-enclave machine, and (scratch
// aside) the spilled, untrusted, uncharged residency of a tiled one. Values
// share slots by liveness, so this is what is live at once, not the sum
// of every value; a value hosted in its halo destination's buffer is
// counted there, once. Inputs are not counted: a direct plan charges them
// to the EPC as its payload and the machine holds them across the passes
// over one record (SetInputEpoch). For I8 machines this counts the code
// slots only, not the boundary buffers (see the quantized type).
func (m *Machine) BufferBytes() int64 { return int64(m.attnRow)*8 + m.bufBytes }

// SpillTraffic returns the bytes a tiled run over rows rows streams from
// the staging tiles out to spilled buffers (one flush per op per row),
// priced at the machine's element width: the quantity charged as
// boundary-transfer payload per call. The count reflects the machine's
// actual program — for a fused program, chains folded into an epilogue
// flush once instead of once per element-wise op, and a chained value
// (fuse.go) is never flushed. A halo op flushes nothing through the
// tile: it adds only the local rows it copies (haloLocalBytes), and its
// gathered rows are HaloBytes. Direct machines spill nothing.
func (m *Machine) SpillTraffic(rows int) int64 {
	if !m.tiled {
		return 0
	}
	es := int64(m.elem.Size())
	n := int64(0)
	for i := range m.prog.ops {
		switch op := &m.prog.ops[i]; {
		case op.Kind == OpHalo:
			n += m.haloLocalBytes(op, rows)
		case op.Dst >= 0 && !m.prog.vals[op.Dst].chained:
			n += int64(rows) * int64(m.prog.vals[op.Dst].width) * es
		}
	}
	return n
}

// haloLocalBytes returns the local rows a tiled halo op copies into its
// destination: none when the source is hosted there (its producer wrote
// them in place, and that flush is counted once, as the producer's), all
// rows of the source otherwise (an input, which lives in the caller's
// memory). Direct machines bill no local copy.
func (m *Machine) haloLocalBytes(op *Op, rows int) int64 {
	if !m.tiled || m.host[op.Srcs[0]] == op.Dst {
		return 0
	}
	return int64(rows) * int64(m.prog.vals[op.Dst].width) * int64(m.elem.Size())
}

// HaloBytes returns the bytes one Run gathers from peer shards — Σ over
// halo ops of slot count × value width at the machine's element width.
// This is cross-enclave traffic through sealed buffers, so callers add
// it to the ECALL payload accounting alongside SpillTraffic; zero for
// programs without halo ops.
func (m *Machine) HaloBytes() int64 {
	es := int64(m.elem.Size())
	n := int64(0)
	for i := range m.prog.ops {
		op := &m.prog.ops[i]
		if op.Kind == OpHalo {
			n += int64(len(op.Halo)) * int64(m.prog.vals[op.Dst].width) * es
		}
	}
	return n
}

// SetTrace binds the trace and parent span IDs the next Run's op spans
// attach to. The caller owning the enclosing span (the ECALL span for an
// in-enclave machine, the query span for the backbone) sets it before
// each Run; it is a plain field write under the machine's one-goroutine
// contract.
func (m *Machine) SetTrace(trace, parent uint64) { m.trace, m.parent = trace, parent }

// SetInputEpoch declares whose blocks the next Run's inputs are: epoch is
// the identity of an immutable record (core passes its public-half store
// registration) that those inputs belong to whole, or nil — the default —
// for inputs the caller owns and may have rewritten. It reports whether
// the machine already holds that record's rows, so the caller transfers
// nothing for them: only a direct machine can, and only when its last Run
// bound the same record; the next Run must then bind it at the same height.
// A tiled machine streams its inputs from sealed untrusted pages and
// always answers false. An I8 machine, direct or tiled, also skips the
// boundary quantisation of a Run over the record whose codes it holds at
// that height. The declaration is spent by the Run it precedes, so a
// caller that forgets one pays a transfer and a quantisation, never
// serves stale inputs; nil also drops the machine's reference to the
// record it last bound. Shares the machine's one-goroutine-at-a-time
// contract with Run.
func (m *Machine) SetInputEpoch(epoch any) (held bool) {
	m.epoch = epoch
	if epoch == nil {
		m.inEpoch = nil
		return false
	}
	return !m.tiled && epoch == m.inEpoch
}

// takeEpoch spends the Run's declaration (SetInputEpoch) as it binds rows
// rows of inputs, records the record they belong to, and reports whether
// that record was already bound at that height. A direct machine that
// answered held and is run at another height panics: its caller billed no
// transfer for rows the machine never bound.
func (m *Machine) takeEpoch(rows int) bool {
	epoch := m.epoch
	m.epoch = nil
	same := epoch != nil && epoch == m.inEpoch
	if same && !m.tiled && rows != m.inRows {
		panic(fmt.Sprintf("exec: held inputs bound at %d rows, run over %d", m.inRows, rows))
	}
	keep := same && rows == m.inRows
	m.inEpoch, m.inRows = epoch, rows
	return keep
}

// opDone closes op i's span: it records a SpanOp carrying the op kind,
// batch height, tile count and the bytes the op's tiles flushed across the
// boundary — for a chained pair, one span under the product's kind and the
// MatMul's flush. Called only when the recorder is enabled.
func (m *Machine) opDone(i, rows int, t0 int64) {
	dur := m.rec.Clock() - t0
	op, staged := &m.prog.ops[i], m.prog.ops[i].Dst
	if m.prog.chains(i) {
		staged = m.prog.ops[i+1].Dst
	}
	tiles := int32(1)
	var bytes int64
	switch {
	case op.Kind == OpHalo:
		// Halo ops run full-height in every mode; the boundary traffic
		// is the gathered peer rows plus any local rows copied.
		bytes = int64(len(op.Halo))*int64(m.prog.vals[op.Dst].width)*int64(m.elem.Size()) + m.haloLocalBytes(op, rows)
	case m.tiled:
		tiles = int32((rows + m.cfg.TileRows - 1) / m.cfg.TileRows)
		if staged >= 0 {
			bytes = int64(rows) * int64(m.prog.vals[staged].width) * int64(m.elem.Size())
		}
	}
	m.rec.Record(obs.Span{
		Trace:  m.trace,
		Parent: m.parent,
		Kind:   obs.SpanOp,
		Op:     uint8(op.Kind),
		Rows:   int32(rows),
		Tiles:  tiles,
		Bytes:  bytes,
		Start:  t0,
		Dur:    dur,
	})
}

// Value returns the machine's stable header for a kept value or the
// output — the way callers read intermediate results (e.g. backbone block
// embeddings) after Run. The header is re-bound by every Run; the pointer
// itself is stable, so it can be captured once at plan time. Values
// readable this way must be pinned with Builder.Keep before fusion: the
// fusion pass may fold any other value away, and the buffer plan reuses
// its slot once its last reader has run. Asking for any other value is a
// planning bug and panics rather than hand back a header whose storage a
// later op overwrote.
func (m *Machine) Value(v int) *mat.Matrix {
	switch val := m.prog.vals[v]; {
	case val.dead:
		panic(fmt.Sprintf("exec: value %d was eliminated from the program (Builder.Keep it before Fused)", v))
	case val.chained:
		panic(fmt.Sprintf("exec: value %d is chained into the next MatMul and never stored (Builder.Keep it)", v))
	case !val.keep && v != m.prog.output:
		panic(fmt.Sprintf("exec: value %d is not kept, so its slot is reused after its last reader (Builder.Keep it)", v))
	}
	return &m.views[v]
}

// Output returns the stable header of the program's result value.
func (m *Machine) Output() *mat.Matrix { return &m.views[m.prog.output] }

// OutputWidth returns the column count of the program's result value —
// the class dimension of a rectifier program — available at plan time,
// before any Run has bound the output view.
func (m *Machine) OutputWidth() int { return m.prog.vals[m.prog.output].width }

// Run executes the program over the first rows rows. inputs must match the
// program's declared inputs (count, order, widths) and all have rows rows;
// labels receives the OpArgmax result and may be nil to skip the label
// reduction (callers that only want logits). The returned matrix is the
// output value's view — machine-owned, overwritten by the next Run.
//
// Run never allocates, and it is the one op loop of both element types:
// validate, bind the value views, pass the fleet entry barrier, then per
// op pick how its rows are walked — a halo gather, the single span
// [0, rows) on a direct machine, or serial tiles on a tiled one — with
// the span bookkeeping around it, then finish. Run keeps no clock of its
// own: an in-enclave Run is billed by the enclave.Ecall that encloses it.
// An I8 machine differs in three places only: bindI8 quantizes the inputs
// (unless SetInputEpoch's record is the one its buffers hold) and
// refreshes each SpMM's value scale, runRows dispatches to the int8 op
// body, and finishI8 dequantizes the output.
func (m *Machine) Run(rows int, inputs []*mat.Matrix, labels []int) *mat.Matrix {
	p := m.prog
	if rows < 0 || rows > p.MaxRows {
		panic(fmt.Sprintf("exec: rows %d outside [0, %d]", rows, p.MaxRows))
	}
	if p.hasHalo && rows != p.MaxRows {
		// Halo slots address peer rows assuming every shard runs full
		// height; partial batches have no meaning on a sharded program.
		panic(fmt.Sprintf("exec: halo program requires full height %d, got %d", p.MaxRows, rows))
	}
	if len(inputs) != p.numInputs {
		panic(fmt.Sprintf("exec: %d inputs, want %d", len(inputs), p.numInputs))
	}
	for _, v := range p.vals {
		if v.input < 0 {
			continue
		}
		if in := inputs[v.input]; in.Rows != rows || in.Cols != v.width {
			panic(fmt.Sprintf("exec: input %d is %s, want %dx%d", v.input, in.Shape(), rows, v.width))
		}
	}
	recOn := m.rec.Enabled()
	keep := m.takeEpoch(rows)
	if m.elem == I8 {
		m.bindI8(rows, inputs, keep, recOn)
	} else {
		// Bind every value's full-rows view: inputs alias the caller's
		// matrices (a held record's are the same immutable blocks, read in
		// place), intermediates alias the first rows rows of their buffer
		// (plus the gathered halo rows for a halo destination); values the
		// fusion pass eliminated and chained values have no buffer to bind.
		for i, v := range p.vals {
			switch {
			case v.input >= 0:
				m.views[i] = *inputs[v.input]
			case m.spill[i] != nil:
				m.spill[i].ViewRows(0, rows+v.extra, &m.views[i])
			}
		}
	}
	if m.sync != nil {
		// Fleet entry barrier: every peer's views are bound (and its inputs
		// quantized) before any shard starts reading across the fleet.
		if err := m.sync(); err != nil {
			panic(&fleetAbort{cause: err})
		}
	}
	for i := 0; i < len(p.ops); i++ {
		op := &p.ops[i]
		if op.CSR != nil && op.CSR.N != rows {
			panic(fmt.Sprintf("exec: %s operator over %d rows, run over %d", op.Kind, op.CSR.N, rows))
		}
		var t0 int64
		if recOn {
			t0 = m.rec.Clock()
		}
		if op.Kind == OpHalo {
			// Ops preceding the halo op are identical across shards, so
			// passing the barrier means every peer's gathered value is
			// complete.
			if m.peers == nil {
				panic("exec: halo op outside a fleet (plan through NewFleet)")
			}
			if err := m.sync(); err != nil {
				panic(&fleetAbort{cause: err})
			}
		}
		switch {
		case op.Kind == OpHalo:
			m.runHalo(op, rows)
		case !m.tiled:
			m.runRows(i, op, 0, rows, labels)
		default:
			for lo := 0; lo < rows; lo += m.cfg.TileRows {
				m.runRows(i, op, lo, min(lo+m.cfg.TileRows, rows), labels)
			}
		}
		if recOn {
			m.opDone(i, rows, t0)
		}
		if p.chains(i) {
			i++ // the chained MatMul ran inside op i, band by band
		}
	}
	if m.elem == I8 {
		m.finishI8(rows)
	}
	return &m.views[p.output]
}

// runRows executes rows [lo, hi) of one op — and of the MatMul it chains,
// if it chains one — through the op body of the machine's element type:
// the interpreter's only choice between them, a branch on a field fixed
// at plan time. idx is the op's program index, by which the bodies find
// the chained MatMul and the int8 body its per-op operands.
func (m *Machine) runRows(idx int, op *Op, lo, hi int, labels []int) {
	if m.elem == I8 {
		m.runRowsI8(idx, op, lo, hi, labels)
	} else {
		m.runRowsF64(idx, op, lo, hi, labels)
	}
}

// runRowsF64 is the fp64 op body. Sources are viewed in place — rows
// [lo, hi) of each, except that a SpMM reads its whole input and an Attn
// its whole t and z, which op-major order guarantees are complete. A
// direct machine passes the one span [0, rows) and the result, fused
// epilogue included (band-local inside the kernels: no separate
// bias/ReLU/add passes over the activations), lands straight in the
// value's own view under the machine's kernel worker budget. A tiled
// machine computes into its EPC-resident staging tile, inline, and
// flushes it once to the destination's spilled buffer; when the op chains
// the next MatMul, each band of its rows goes into the band scratch and
// from there, through the MatMul, into the tile, which is then flushed to
// the MatMul's destination.
func (m *Machine) runRowsF64(idx int, op *Op, lo, hi int, labels []int) {
	s := &m.scratch
	if op.Kind == OpArgmax {
		if labels != nil {
			m.views[op.Srcs[0]].ViewRows(lo, hi, &s.srcTiles[0]).ArgmaxRowsInto(labels[lo:hi])
		}
		return
	}
	last := op
	if m.prog.chains(idx) {
		last = &m.prog.ops[idx+1]
	}
	dst := m.views[last.Dst].ViewRows(lo, hi, &s.dstTile)
	out, workers := dst, m.cfg.Workers
	if m.tiled {
		s.tileView = mat.Matrix{Rows: hi - lo, Cols: dst.Cols, Data: m.tile.Data[:(hi-lo)*dst.Cols]}
		out, workers = &s.tileView, 1
	}
	if last == op {
		m.opRowsF64(op, out, m.srcRowsF64(op, lo, hi), lo, hi, workers)
	} else {
		w := m.prog.vals[op.Dst].width
		for b := lo; b < hi; b += chainBand {
			e := min(b+chainBand, hi)
			s.bandMat = mat.Matrix{Rows: e - b, Cols: w, Data: s.band[:(e-b)*w]}
			m.opRowsF64(op, &s.bandMat, m.srcRowsF64(op, b, e), b, e, 1)
			s.bandSrc[0] = &s.bandMat
			m.opRowsF64(last, out.ViewRows(b-lo, e-lo, &s.bandOut), s.bandSrc[:], b, e, 1)
		}
	}
	if m.tiled {
		mat.CopyInto(dst, out)
	}
}

// srcRowsF64 views rows [lo, hi) of each of op's sources.
func (m *Machine) srcRowsF64(op *Op, lo, hi int) []*mat.Matrix {
	s := &m.scratch
	srcs := s.srcPtrs[:len(op.Srcs)]
	for i, v := range op.Srcs {
		srcs[i] = m.views[v].ViewRows(lo, hi, &s.srcTiles[i])
	}
	return srcs
}

// opRowsF64 computes rows [lo, hi) of op into out from srcs, its sources'
// rows [lo, hi) (a SpMM and an Attn read their gathered operands whole).
func (m *Machine) opRowsF64(op *Op, out *mat.Matrix, srcs []*mat.Matrix, lo, hi, workers int) {
	var res *mat.Matrix
	if op.Epi.Res >= 0 {
		res = m.views[op.Epi.Res].ViewRows(lo, hi, &m.scratch.resTile)
	}
	switch op.Kind {
	case OpMatMul:
		mat.MatMulBiasReLUInto(out, srcs[0], op.W, op.Epi.Bias, res, op.Epi.ReLU, workers)
	case OpSpMM:
		op.CSR.MulDenseBiasReLURangeInto(out, &m.views[op.Srcs[0]], lo, hi, op.Epi.Bias, res, op.Epi.ReLU, workers)
	case OpAddBias:
		mat.AddBiasInto(out, srcs[0], op.B)
	case OpReLU:
		mat.ReLUInto(out, srcs[0])
	case OpAdd:
		mat.AddInto(out, srcs[0], srcs[1])
	case OpConcat:
		mat.HConcatInto(out, srcs...)
	case OpAttn:
		m.attnRowsF64(out, op, lo, hi, res)
	default:
		panic(fmt.Sprintf("exec: no fp64 body for op kind %s", op.Kind))
	}
}

// runHalo gathers one halo-exchange op once Run has passed its barrier:
// the local rows of src are dst's first rows already when src is hosted
// there (its producer wrote them in place) and are copied otherwise (an
// input, which lives in the caller's memory); each slot's peer row goes
// below them. The copies are bit-exact row moves at the machine's
// element width, so sharded execution inherits the engine's bit-identity
// contract; the op runs full-height in both modes (direct, tiled).
func (m *Machine) runHalo(op *Op, rows int) {
	src, dst := op.Srcs[0], op.Dst
	d := m.prog.vals[dst].width
	if m.host[src] != dst {
		m.copyRows(dst, 0, m, src, 0, rows, d)
	}
	// Halo slots are sorted by global column, so consecutive slots owned
	// by the same peer with adjacent local rows form runs that gather as
	// one copy each. On power-law graphs the halo is near-all-to-all and
	// runs span most of a peer's range, collapsing hundreds of thousands
	// of row-sized copies into a handful of block moves — same bytes,
	// same layout, so bit-identity is untouched.
	for k := 0; k < len(op.Halo); {
		sl := &op.Halo[k]
		j := k + 1
		for j < len(op.Halo) && op.Halo[j].Shard == sl.Shard && op.Halo[j].Row == sl.Row+(j-k) {
			j++
		}
		m.copyRows(dst, rows+k, m.peers[sl.Shard], src, sl.Row, j-k, d)
		k = j
	}
}

// copyRows moves n d-wide rows of peer's value src, from row at on, into
// this machine's value dst from row to on. Fleets are validated to share
// one element type, so the peer holds the same kind of view.
func (m *Machine) copyRows(dst, to int, peer *Machine, src, at, n, d int) {
	if m.elem == I8 {
		copy(m.q.views[dst].Data[to*d:(to+n)*d], peer.q.views[src].Data[at*d:(at+n)*d])
	} else {
		copy(m.views[dst].Data[to*d:(to+n)*d], peer.views[src].Data[at*d:(at+n)*d])
	}
}
