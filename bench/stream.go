package main

import (
	"math/rand"
	"strconv"
)

// request is one generated query: the only thing the served program ever
// receives from the benchmark.
type request struct {
	Path  string // "/predict" | "/predict_nodes"
	Vault string
	Nodes []int
}

// body renders the request's JSON payload (the serve.API wire format).
func (r *request) body() []byte {
	b := make([]byte, 0, 32+len(r.Vault)+6*len(r.Nodes))
	b = append(b, `{"vault":"`...)
	b = append(b, r.Vault...)
	b = append(b, `","nodes":[`...)
	for i, n := range r.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, "]}"...)
}

// stream is one client's deterministic request sequence: the same
// (workload, seed, client) always yields the same requests in the same
// order, whatever the timing of the run.
type stream struct {
	rng    *rand.Rand
	vaults []string
	nodes  int
	node   bool // /predict_nodes with 1..4 seeds
	next   int  // round-robin vault cursor
}

func newStream(w *workload, fx *fixture, seed int64, client int) *stream {
	s := &stream{
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		nodes: fx.DS.X.Rows,
		node:  w.NodeQuery != nil,
		next:  client,
	}
	for _, m := range fx.Models {
		s.vaults = append(s.vaults, m.ID)
	}
	return s
}

// Next draws the next request: the vault round-robin, the node ids
// uniformly without repetition.
func (s *stream) Next() request {
	r := request{Path: "/predict", Vault: s.vaults[s.next%len(s.vaults)]}
	s.next++
	k := nodesPerRequest
	if s.node {
		r.Path = "/predict_nodes"
		k = 1 + s.rng.Intn(4)
	}
	r.Nodes = make([]int, 0, k)
	for len(r.Nodes) < k {
		n := s.rng.Intn(s.nodes)
		dup := false
		for _, m := range r.Nodes {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			r.Nodes = append(r.Nodes, n)
		}
	}
	return r
}
