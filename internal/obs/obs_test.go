package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket mapping at the exact
// power-of-two edges: 2^i-1 and 2^i must land in adjacent buckets, and
// zero in bucket 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{(1 << 40) - 1, 40}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
		if c.v > 0 {
			lo := int64(1) << (bucketOf(c.v) - 1)
			if c.v < lo || c.v > BucketUpper(bucketOf(c.v)) {
				t.Errorf("value %d outside its bucket bounds [%d, %d]", c.v, lo, BucketUpper(bucketOf(c.v)))
			}
		}
	}
	if BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", BucketUpper(0))
	}
	if BucketUpper(3) != 7 {
		t.Errorf("BucketUpper(3) = %d, want 7", BucketUpper(3))
	}
}

// TestHistogramQuantiles checks quantile extraction against a known
// distribution: quantiles must be monotone in q, land inside the bucket
// holding the target rank, and clamp to the exact observed Max at the
// top.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 samples in [8, 15] (bucket 4), 9 in [1024, 2047] (bucket 11),
	// one exact max at 5000 (bucket 13).
	for i := 0; i < 90; i++ {
		h.Observe(8 + int64(i%8))
	}
	for i := 0; i < 9; i++ {
		h.Observe(1024 + int64(i*100))
	}
	h.Observe(5000)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.50); p50 < 8 || p50 > 15 {
		t.Errorf("p50 = %d, want within [8, 15]", p50)
	}
	if p95 := s.Quantile(0.95); p95 < 1024 || p95 > 2047 {
		t.Errorf("p95 = %d, want within [1024, 2047]", p95)
	}
	if p100 := s.Quantile(1); p100 != 5000 {
		t.Errorf("p100 = %d, want exactly the max 5000", p100)
	}
	if s.Quantile(0.5) > s.Quantile(0.95) || s.Quantile(0.95) > s.Quantile(0.99) {
		t.Error("quantiles not monotone in q")
	}
	if avg := s.Avg(); avg > s.Max {
		t.Errorf("avg %d > max %d", avg, s.Max)
	}
}

// TestHistogramSingleSample pins the degenerate cases: every quantile of
// a one-sample histogram is that sample, and an empty histogram reports
// zeros.
func TestHistogramSingleSample(t *testing.T) {
	var empty Histogram
	es := empty.Snapshot()
	if es.Quantile(0.99) != 0 || es.Avg() != 0 {
		t.Error("empty histogram must report zero quantiles and avg")
	}

	var h Histogram
	h.Observe(777)
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 777 {
			t.Errorf("Quantile(%g) = %d, want 777 (max-clamped single sample)", q, got)
		}
	}
	if s.Avg() != 777 {
		t.Errorf("Avg = %d, want 777", s.Avg())
	}
}

// TestHistogramMerge checks the per-endpoint → overall union the serving
// stats derive.
func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(20)
	b.Observe(3000)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 3 || m.Sum != 3030 || m.Max != 3000 {
		t.Fatalf("merge = count %d sum %d max %d, want 3/3030/3000", m.Count, m.Sum, m.Max)
	}
	if p100 := m.Quantile(1); p100 != 3000 {
		t.Errorf("merged p100 = %d, want 3000", p100)
	}
}

// TestRingWraparound fills a small ring past capacity and checks Last
// returns the newest spans in order.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Record(Span{Trace: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	got := r.Last(0)
	if len(got) != 4 {
		t.Fatalf("Last(0) returned %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(7 + i); s.Trace != want {
			t.Errorf("span %d trace %d, want %d", i, s.Trace, want)
		}
	}
	if last := r.Last(2); len(last) != 2 || last[1].Trace != 10 {
		t.Errorf("Last(2) = %v, want the two newest", last)
	}
}

// TestRingConcurrent hammers Record/Last/NewSpan under -race.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := r.NewSpan()
				r.Record(Span{Trace: id, ID: id, Start: r.Clock()})
				if i%50 == 0 {
					r.Last(16)
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want full ring 64", r.Len())
	}
}

// TestNopRecorder pins the disabled recorder's contract: no IDs, no
// clock, Enabled false.
func TestNopRecorder(t *testing.T) {
	if Nop.Enabled() || Nop.NewSpan() != 0 || Nop.Clock() != 0 {
		t.Fatal("Nop recorder must be inert")
	}
	Nop.Record(Span{}) // must not panic
}

// TestWriteHistogramExposition checks the hand-rolled Prometheus text:
// cumulative buckets, +Inf, _sum/_count, and label escaping.
func TestWriteHistogramExposition(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	var b strings.Builder
	WriteHeader(&b, "x_seconds", "histogram", "test family")
	WriteHistogram(&b, "x_seconds", []Label{{"vault", "cora/parallel"}}, h.Snapshot(), 1)
	out := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{vault="cora/parallel",le="3"} 2`,
		`x_seconds_bucket{vault="cora/parallel",le="127"} 3`,
		`x_seconds_bucket{vault="cora/parallel",le="+Inf"} 3`,
		`x_seconds_sum{vault="cora/parallel"} 106`,
		`x_seconds_count{vault="cora/parallel"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestCounterGauge smoke-tests the scalar primitive, the counter.
func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
}
