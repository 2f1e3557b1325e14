package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The private adjacency matrix is persisted and sealed in the Coordinate
// (COO) format: a compact binary layout of (row, col) index pairs plus the
// node count. This mirrors the paper's deployment choice (Sec. IV-E): only
// non-zero entries with their indices are kept inside the enclave, with the
// degree information recomputed at load.

const cooMagic = uint32(0x474E4E56) // "GNNV"

// MarshalCOO serialises g into the binary COO layout:
//
//	magic  uint32
//	n      uint32
//	nnz    uint32 (directed edge count)
//	rows   [nnz]uint32
//	cols   [nnz]uint32
func MarshalCOO(g *Graph) []byte {
	var buf bytes.Buffer
	write := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	write(cooMagic)
	write(uint32(g.n))
	write(uint32(len(g.edges)))
	for _, e := range g.edges {
		write(uint32(e.U))
	}
	for _, e := range g.edges {
		write(uint32(e.V))
	}
	return buf.Bytes()
}

// UnmarshalCOO parses the binary COO layout produced by MarshalCOO for a
// graph the caller knows to have nodes nodes. The header's own count is
// outside input and sizes the adjacency's row pointers, so one that
// disagrees with nodes is refused before anything is allocated from it;
// the edge count is bounded by the payload length the same way.
func UnmarshalCOO(data []byte, nodes int) (*Graph, error) {
	r := bytes.NewReader(data)
	var magic, n, nnz uint32
	for _, p := range []*uint32{&magic, &n, &nnz} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: COO header truncated: %w", err)
		}
	}
	if magic != cooMagic {
		return nil, fmt.Errorf("graph: bad COO magic %#x", magic)
	}
	if int64(n) != int64(nodes) {
		return nil, fmt.Errorf("graph: COO header says %d nodes, want %d", n, nodes)
	}
	want := int64(12) + int64(nnz)*8
	if int64(len(data)) != want {
		return nil, fmt.Errorf("graph: COO payload length %d, want %d", len(data), want)
	}
	rows := make([]uint32, nnz)
	cols := make([]uint32, nnz)
	if err := binary.Read(r, binary.LittleEndian, rows); err != nil {
		return nil, fmt.Errorf("graph: COO rows truncated: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, cols); err != nil && err != io.EOF {
		return nil, fmt.Errorf("graph: COO cols truncated: %w", err)
	}
	edges := make([]Edge, nnz)
	for i := range edges {
		if rows[i] >= n || cols[i] >= n {
			return nil, fmt.Errorf("graph: COO edge (%d,%d) out of range n=%d", rows[i], cols[i], n)
		}
		edges[i] = Edge{int(rows[i]), int(cols[i])}
	}
	return NewFromDirected(int(n), edges), nil
}
