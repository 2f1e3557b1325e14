package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gnnvault/internal/mat"
)

// Model is an ordered stack of layers trained end-to-end.
type Model struct {
	Layers []Layer
}

// NewModel returns a model over the given layers.
func NewModel(layers ...Layer) *Model { return &Model{Layers: layers} }

// Forward runs the full stack and returns the final output.
func (m *Model) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h, train)
	}
	return h
}

// ForwardCollect runs the stack and additionally returns the output of
// every layer (in order). GNNVault uses the collected activations as the
// embeddings handed from the public backbone to the private rectifier, and
// the link-stealing attack consumes them as its observation surface.
func (m *Model) ForwardCollect(x *mat.Matrix, train bool) (out *mat.Matrix, activations []*mat.Matrix) {
	h := x
	activations = make([]*mat.Matrix, 0, len(m.Layers))
	for _, l := range m.Layers {
		h = l.Forward(h, train)
		activations = append(activations, h)
	}
	return h, activations
}

// Backward propagates dL/dOutput through the stack, accumulating parameter
// gradients, and returns dL/dInput.
func (m *Model) Backward(dOut *mat.Matrix) *mat.Matrix {
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		d = m.Layers[i].Backward(d)
	}
	return d
}

// Params returns every parameter/gradient pair in the stack.
func (m *Model) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count (θ in the paper's
// tables).
func (m *Model) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += l.NumParams()
	}
	return n
}

// ParamBytes returns the in-memory size of all parameters in bytes, used
// for enclave EPC accounting and sealing.
func (m *Model) ParamBytes() int64 { return int64(m.NumParams()) * 8 }

const paramsMagic = uint32(0x474E5650) // "GNVP"

// MarshalParams serialises every parameter matrix into a compact binary
// blob (the payload GNNVault seals into the enclave at deployment).
func (m *Model) MarshalParams() []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	ps := m.Params()
	w(paramsMagic)
	w(uint32(len(ps)))
	for _, p := range ps {
		w(uint32(p.W.Rows))
		w(uint32(p.W.Cols))
		w(p.W.Data)
	}
	return buf.Bytes()
}

// UnmarshalParams loads a blob produced by MarshalParams into the model's
// existing parameter tensors. Shapes must match exactly.
func (m *Model) UnmarshalParams(data []byte) error {
	r := bytes.NewReader(data)
	var magic, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: params header: %w", err)
	}
	if magic != paramsMagic {
		return fmt.Errorf("nn: bad params magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: params count: %w", err)
	}
	ps := m.Params()
	if int(count) != len(ps) {
		return fmt.Errorf("nn: params count %d, model has %d", count, len(ps))
	}
	for i, p := range ps {
		var rows, cols uint32
		if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
			return fmt.Errorf("nn: param %d rows: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &cols); err != nil {
			return fmt.Errorf("nn: param %d cols: %w", i, err)
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("nn: param %d shape %dx%d, model wants %s", i, rows, cols, p.W.Shape())
		}
		if err := binary.Read(r, binary.LittleEndian, p.W.Data); err != nil {
			return fmt.Errorf("nn: param %d data: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("nn: %d trailing bytes after params", r.Len())
	}
	return nil
}
