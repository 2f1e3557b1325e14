package nn

import (
	"fmt"
	"math"

	"gnnvault/internal/mat"
)

// Allocation-free inference. Training allocates freely — it runs once,
// offline — but a deployed vault answers a stream of requests, where
// per-call garbage makes steady-state throughput collector-bound. The
// workspace model splits inference into a one-time *plan* (size every
// buffer from the layer spec) and a hot *execute* step (ForwardWS) that
// touches zero fresh heap. It also mirrors enclave reality: EPC is
// pre-allocated once, not malloc'd per request.

// LayerWorkspace holds one layer's pre-sized scratch buffers. The field
// roles depend on the layer (documented per ForwardWS implementation); Out
// is always the buffer the layer's result lives in, except for identity
// layers, which pass their input through and leave Out nil.
type LayerWorkspace struct {
	Out  *mat.Matrix // layer output
	Tmp  *mat.Matrix // first intermediate (XW, D⁻¹A·X, z, …)
	Tmp2 *mat.Matrix // second intermediate (SAGE neighbour term)
	VecA []float64   // per-node scratch (GAT source attention scores)
	VecB []float64   // per-node scratch (GAT target attention scores)
	Edge []float64   // per-edge scratch (GAT attention coefficients)

	// Workers is this workspace's parallel-kernel budget: 0 resolves to
	// GOMAXPROCS, 1 runs inline, larger values cap the fan-out.
	// It is carried per plan (not per process) so concurrent servers with
	// different settings cannot stomp each other; a layer's Serial mode
	// still forces 1 regardless.
	Workers int

	// Heads are sub-workspaces for composite layers (multi-head GAT), and
	// Mats caches their output pointers so concatenation needs no per-call
	// slice.
	Heads []*LayerWorkspace
	Mats  []*mat.Matrix
}

// workers resolves the effective kernel budget for a layer running in this
// workspace: serial layers (in-enclave mode) always run inline.
func (ws *LayerWorkspace) workers(serial bool) int {
	if serial {
		return 1
	}
	return ws.Workers
}

// NumBytes returns the workspace's total buffer footprint, the quantity the
// enclave charges against the EPC at plan time.
func (ws *LayerWorkspace) NumBytes() int64 {
	if ws == nil {
		return 0
	}
	n := int64(len(ws.VecA)+len(ws.VecB)+len(ws.Edge)) * 8
	for _, m := range []*mat.Matrix{ws.Out, ws.Tmp, ws.Tmp2} {
		if m != nil {
			n += m.NumBytes()
		}
	}
	for _, h := range ws.Heads {
		n += h.NumBytes()
	}
	return n
}

// WorkspaceLayer is a layer that supports allocation-free inference:
// PlanWorkspace sizes scratch buffers for a fixed batch height once, and
// ForwardWS runs inference (train=false semantics) writing only into those
// buffers. The returned matrix aliases workspace memory (or the input, for
// identity layers) and is valid until the workspace's next use.
type WorkspaceLayer interface {
	Layer
	// PlanWorkspace returns scratch sized for a rows×inCols input, plus
	// the layer's output width (inCols for shape-preserving layers).
	PlanWorkspace(rows, inCols int) (*LayerWorkspace, int)
	// ForwardWS is the inference-mode forward pass into ws.
	ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix
}

// PlanWorkspace sizes one XW scratch and one output buffer.
func (l *GCNConv) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	if inCols != l.InDim {
		panic(fmt.Sprintf("nn: GCNConv plan input dim %d, want %d", inCols, l.InDim))
	}
	return &LayerWorkspace{
		Tmp: mat.New(rows, l.OutDim),
		Out: mat.New(rows, l.OutDim),
	}, l.OutDim
}

// ForwardWS computes Â(XW) + b into ws.Out (XW staged in ws.Tmp).
func (l *GCNConv) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GCNConv input dim %d, want %d", x.Cols, l.InDim))
	}
	w := ws.workers(l.Serial)
	mat.MatMulWorkersInto(ws.Tmp, x, l.W, w)
	l.adj.MulDenseWorkersInto(ws.Out, ws.Tmp, w)
	mat.AddBiasInto(ws.Out, ws.Out, l.B)
	return ws.Out
}

// PlanWorkspace sizes the single output buffer.
func (l *Dense) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	if inCols != l.InDim {
		panic(fmt.Sprintf("nn: Dense plan input dim %d, want %d", inCols, l.InDim))
	}
	return &LayerWorkspace{Out: mat.New(rows, l.OutDim)}, l.OutDim
}

// ForwardWS computes XW + b into ws.Out.
func (l *Dense) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: Dense input dim %d, want %d", x.Cols, l.InDim))
	}
	mat.MatMulWorkersInto(ws.Out, x, l.W, ws.workers(l.Serial))
	mat.AddBiasInto(ws.Out, ws.Out, l.B)
	return ws.Out
}

// PlanWorkspace sizes a shape-preserving output buffer. ReLU writes into
// its own buffer (rather than in place) because its input may be a
// backbone embedding that must survive for the rectifier.
func (l *ReLU) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	return &LayerWorkspace{Out: mat.New(rows, inCols)}, inCols
}

// ForwardWS zeroes negative entries into ws.Out.
func (l *ReLU) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	mat.ReLUInto(ws.Out, x)
	return ws.Out
}

// PlanWorkspace needs no buffers: inference-mode dropout is identity.
func (l *Dropout) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	return &LayerWorkspace{}, inCols
}

// ForwardWS is the identity (inference-mode dropout).
func (l *Dropout) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	return x
}

// PlanWorkspace sizes the aggregation scratch (Tmp, rows×InDim), the
// neighbour term (Tmp2) and the output buffer.
func (l *SAGEConv) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	if inCols != l.InDim {
		panic(fmt.Sprintf("nn: SAGEConv plan input dim %d, want %d", inCols, l.InDim))
	}
	return &LayerWorkspace{
		Tmp:  mat.New(rows, l.InDim),
		Tmp2: mat.New(rows, l.OutDim),
		Out:  mat.New(rows, l.OutDim),
	}, l.OutDim
}

// ForwardWS computes X·W_self + (D⁻¹A·X)·W_nbr + b into ws.Out.
func (l *SAGEConv) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: SAGEConv input dim %d, want %d", x.Cols, l.InDim))
	}
	w := ws.workers(l.Serial)
	l.agg.MulDenseWorkersInto(ws.Tmp, x, w)
	mat.MatMulWorkersInto(ws.Out, x, l.WSelf, w)
	mat.MatMulWorkersInto(ws.Tmp2, ws.Tmp, l.WNbr, w)
	mat.AddInto(ws.Out, ws.Out, ws.Tmp2)
	mat.AddBiasInto(ws.Out, ws.Out, l.B)
	return ws.Out
}

// PlanWorkspace sizes the projection (Tmp), output, per-node score vectors
// and the per-edge attention buffer.
func (l *GATConv) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	if inCols != l.InDim {
		panic(fmt.Sprintf("nn: GATConv plan input dim %d, want %d", inCols, l.InDim))
	}
	return &LayerWorkspace{
		Tmp:  mat.New(rows, l.OutDim),
		Out:  mat.New(rows, l.OutDim),
		VecA: make([]float64, rows),
		VecB: make([]float64, rows),
		Edge: make([]float64, l.struct_.NNZ()),
	}, l.OutDim
}

// ForwardWS computes attention-weighted aggregation into ws.Out, staging
// z = XW in ws.Tmp, the per-node score dots in VecA/VecB and the per-edge
// softmax in Edge.
func (l *GATConv) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GATConv input dim %d, want %d", x.Cols, l.InDim))
	}
	z := ws.Tmp
	mat.MatMulWorkersInto(z, x, l.W, ws.workers(l.Serial))
	n := z.Rows
	s, t := ws.VecA, ws.VecB
	for i := 0; i < n; i++ {
		zi := z.Data[i*z.Cols : (i+1)*z.Cols]
		var ss, tt float64
		for k, v := range zi {
			ss += l.ASrc[k] * v
			tt += l.ADst[k] * v
		}
		s[i], t[i] = ss, tt
	}

	st := l.struct_
	alpha := ws.Edge
	out := ws.Out
	out.Zero()
	for i := 0; i < n; i++ {
		lo, hi := st.RowPtr[i], st.RowPtr[i+1]
		mx := math.Inf(-1)
		for p := lo; p < hi; p++ {
			e := s[i] + t[st.ColIdx[p]]
			if e < 0 {
				e *= l.NegSlope
			}
			alpha[p] = e
			if e > mx {
				mx = e
			}
		}
		sum := 0.0
		for p := lo; p < hi; p++ {
			alpha[p] = math.Exp(alpha[p] - mx)
			sum += alpha[p]
		}
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for p := lo; p < hi; p++ {
			alpha[p] /= sum
			zj := z.Data[st.ColIdx[p]*z.Cols : (st.ColIdx[p]+1)*z.Cols]
			a := alpha[p]
			for k, v := range zj {
				orow[k] += a * v
			}
		}
	}
	mat.AddBiasInto(out, out, l.B)
	return out
}

// PlanWorkspace plans every head plus the concatenation buffer.
func (m *MultiHeadGAT) PlanWorkspace(rows, inCols int) (*LayerWorkspace, int) {
	if inCols != m.InDim {
		panic(fmt.Sprintf("nn: MultiHeadGAT plan input dim %d, want %d", inCols, m.InDim))
	}
	ws := &LayerWorkspace{Out: mat.New(rows, m.OutDim)}
	for _, head := range m.Heads {
		hws, _ := head.PlanWorkspace(rows, inCols)
		ws.Heads = append(ws.Heads, hws)
		ws.Mats = append(ws.Mats, hws.Out)
	}
	return ws, m.OutDim
}

// ForwardWS runs every head into its sub-workspace and concatenates into
// ws.Out.
func (m *MultiHeadGAT) ForwardWS(x *mat.Matrix, ws *LayerWorkspace) *mat.Matrix {
	for h, head := range m.Heads {
		head.ForwardWS(x, ws.Heads[h])
	}
	mat.HConcatInto(ws.Out, ws.Mats...)
	return ws.Out
}

// SetWorkers applies a budget to a layer workspace and its composite-head
// sub-workspaces. Exported so executors that plan individual layers (the
// opaque-op fallback in internal/exec programs) can carry their budget in.
func (ws *LayerWorkspace) SetWorkers(n int) {
	ws.Workers = n
	for _, h := range ws.Heads {
		h.SetWorkers(n)
	}
}
