package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile (0<p<1) of sorted, or —
// when fewer than tailSamples samples lie beyond that rank — the highest
// percentile that does have tailSamples beyond it, falling back to the
// median below 2·tailSamples+1 samples. used is the percentile actually
// reported.
func percentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < tailSamples {
		idx = n - 1 - tailSamples
		if idx < n/2 {
			idx = n / 2
		}
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

// sliceMedianRate cuts [0, window) seconds into slices equal parts, puts
// every round in the slice it started in and returns the median slice
// rate in 1/s — one stall lands in one slice and cannot move the median.
// A slice's rate is its completions over its rounds' busy time, each
// round's divided by its host-speed factor when normalised; the reference
// timed between rounds is in neither. Slices no round started in are left
// out.
func sliceMedianRate(rounds []round, window float64, slices int, normalised bool) float64 {
	if window <= 0 || slices <= 0 {
		return 0
	}
	done := make([]float64, slices)
	busy := make([]float64, slices)
	for i := range rounds {
		r := &rounds[i]
		s := min(max(int(r.StartS/window*float64(slices)), 0), slices-1)
		done[s] += float64(r.Done)
		busy[s] += r.WallS / r.scale(normalised)
	}
	var rates []float64
	for s := range done {
		if busy[s] > 0 {
			rates = append(rates, done[s]/busy[s])
		}
	}
	return median(rates)
}

// span is one bench-side measurement around a call into a layer. Spans of
// one replayed request share Trace; Parent links the tree (0 = root).
type span struct {
	Trace    uint64 `json:"trace"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its direct children cover: overlapping children are merged
// and every child is clipped to the parent, so the result is never below
// 0. A replayed child can stick out of its parent — the two were timed in
// separate executions — and each parent that had a child clipped is
// counted in negative: those are the subtractions that would have gone
// below 0.
func selfTimes(spans []span) (self map[uint64]int64, negative int) {
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self = make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].lo < ks[j].lo })
		var covered int64
		clipped := false
		cur := s.StartNs
		for _, k := range ks {
			if k.lo < s.StartNs || k.hi > s.EndNs {
				clipped = true
			}
			lo, hi := max(k.lo, cur), min(k.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		if clipped {
			negative++
		}
		self[s.ID] = s.dur() - covered
	}
	return self, negative
}
