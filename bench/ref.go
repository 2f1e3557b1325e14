package main

import (
	"math/rand"
	"time"
)

// The host-speed reference.
//
// The build host gives this process two vCPUs of a shared machine whose
// speed moves under it: the same single-threaded loop takes 33 ms or 54 ms
// depending on what the neighbours do, for seconds to minutes at a time,
// and a second busy thread runs anywhere between "in parallel" and "in
// turns". No statistic taken inside a 10 s window removes that, so the
// benchmark (a) never asks for more than one core — runtime.GOMAXPROCS(1)
// from the moment the fixture is trained — and (b) reads every host-clock
// end-to-end figure against a fixed piece of work of its own, run between
// rounds of load while the stack is quiet.
//
// The reference is two kernels no program change can touch: a dependent
// floating-point chain over 256 KB (core speed: frequency, a busy SMT
// sibling) and independent random loads over 32 MB (the shared cache and
// memory). The two move separately on this host, and a served request is a
// mix of both; with equal weights the mix tracked full-graph fp64, int8
// tiled, node-query, churn and fleet requests alike when sized (raw 10 s
// medians with an inter-quartile spread of 8-29% came down to 2-5%), where
// either kernel alone over- or under-corrected. The host-speed factor is
// their time relative to the nominal constants below — about what the
// build host takes; it has read 0.77 to 1.1 — so a figure divided by it
// reads "at reference-host speed" whatever the host was doing, and a
// uniformly faster or slower machine cancels out too.

const (
	refChainNominalMs  = 2.0
	refGatherNominalMs = 1.25
)

// speedFactor turns one timing of the two kernels into the host-speed
// factor: 1 on the reference host, 1.5 when this host needs half as long
// again for the same work.
func speedFactor(chainMs, gatherMs float64) float64 {
	return 0.5*chainMs/refChainNominalMs + 0.5*gatherMs/refGatherNominalMs
}

type hostRef struct {
	chain []float64
	table []float64
	index []int32
	sink  float64
}

func newHostRef() *hostRef {
	h := &hostRef{
		chain: make([]float64, 1<<15),
		table: make([]float64, 1<<22),
		index: make([]int32, 1<<14),
	}
	rng := rand.New(rand.NewSource(1))
	for i := range h.index {
		h.index[i] = int32(rng.Intn(len(h.table)))
	}
	for i := range h.table {
		h.table[i] = 1
	}
	h.sample() // fault the pages in
	return h
}

// sample runs both kernels once (≈3-5 ms) and returns the host-speed
// factor. Call it only while nothing else in the process is runnable.
func (h *hostRef) sample() float64 {
	t0 := time.Now()
	s := 0.0
	for r := 0; r < 64; r++ {
		for i := range h.chain {
			s += h.chain[i] * 1.0000001
			h.chain[i] = s * 1e-9
		}
	}
	t1 := time.Now()
	mask := len(h.table) - 1
	for r := 0; r < 4; r++ {
		for _, j := range h.index {
			s += h.table[(int(j)+r*977)&mask]
		}
	}
	t2 := time.Now()
	h.sink += s
	return speedFactor(float64(t1.Sub(t0).Nanoseconds())/1e6, float64(t2.Sub(t1).Nanoseconds())/1e6)
}
