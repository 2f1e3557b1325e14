package graph

import (
	"encoding/binary"
	"fmt"
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
//
// The bytes go into one buffer sized up front: one allocation, whatever
// the edge count.
func MarshalCOO(g *Graph) []byte {
	buf := make([]byte, 0, 12+8*len(g.edges))
	buf = binary.LittleEndian.AppendUint32(buf, cooMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.edges)))
	for _, e := range g.edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
	}
	for _, e := range g.edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
	}
	return buf
}

// UnmarshalCOO parses the binary COO layout produced by MarshalCOO for a
// graph the caller knows to have nodes nodes. The header's own count is
// outside input and sizes the adjacency's row pointers, so one that
// disagrees with nodes is refused before anything is allocated from it;
// the edge count is bounded by the payload length the same way.
func UnmarshalCOO(data []byte, nodes int) (*Graph, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("graph: COO header truncated: %d bytes", len(data))
	}
	le := binary.LittleEndian
	magic, n, nnz := le.Uint32(data), le.Uint32(data[4:]), le.Uint32(data[8:])
	if magic != cooMagic {
		return nil, fmt.Errorf("graph: bad COO magic %#x", magic)
	}
	if int64(n) != int64(nodes) {
		return nil, fmt.Errorf("graph: COO header says %d nodes, want %d", n, nodes)
	}
	if want := int64(12) + int64(nnz)*8; int64(len(data)) != want {
		return nil, fmt.Errorf("graph: COO payload length %d, want %d", len(data), want)
	}
	rows, cols := data[12:12+4*int(nnz)], data[12+4*int(nnz):]
	edges := make([]Edge, nnz)
	for i := range edges {
		u, v := le.Uint32(rows[4*i:]), le.Uint32(cols[4*i:])
		if u >= n || v >= n {
			return nil, fmt.Errorf("graph: COO edge (%d,%d) out of range n=%d", u, v, n)
		}
		edges[i] = Edge{int(u), int(v)}
	}
	return NewFromDirected(int(n), edges), nil
}
