package telemetry

import (
	"sort"
	"testing"
)

// TestNearestRankIndex pins the shared quantile-position rule, including
// the small-N edges that the load generator's old ad-hoc indexing only
// got right by accident.
func TestNearestRankIndex(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1, 0.5, 0},
		{1, 0.99, 0},
		{1, 0.999, 0},
		{2, 0.5, 0},
		{2, 0.99, 1},
		{4, 0.5, 1},
		{4, 0.99, 3},
		{100, 0.5, 49},
		{100, 0.99, 98},
		{100, 0.999, 99},
		{1000, 0.999, 998},
		{10, 1.0, 9},
		{10, 0.0, 0},
	}
	for _, c := range cases {
		if got := NearestRankIndex(c.n, c.q); got != c.want {
			t.Errorf("NearestRankIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// Never out of bounds for any n, q.
	for n := 0; n <= 200; n++ {
		for _, q := range []float64{-0.1, 0, 0.5, 0.99, 0.999, 1, 1.5} {
			i := NearestRankIndex(n, q)
			if n == 0 && i != 0 {
				t.Fatalf("n=0 q=%v: index %d", q, i)
			}
			if n > 0 && (i < 0 || i >= n) {
				t.Fatalf("n=%d q=%v: index %d out of range", n, q, i)
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	if got := NearestRank(nil, 0.99); got != 0 {
		t.Errorf("empty: %d, want 0", got)
	}
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := NearestRank(s, 0.5); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := NearestRank(s, 0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
}

// TestLogBounds: monotone, deduplicated, spans [lo, hi].
func TestLogBounds(t *testing.T) {
	b := LogBounds(1000, 100_000_000_000, 9)
	if b[0] != 1000 {
		t.Errorf("first bound %d, want 1000", b[0])
	}
	if last := b[len(b)-1]; last < 100_000_000_000 {
		t.Errorf("last bound %d < hi", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
	// Tiny ranges still behave.
	small := LogBounds(1, 4, 3)
	if small[0] != 1 || small[len(small)-1] < 4 {
		t.Errorf("small-range bounds broken: %v", small)
	}
}

// TestHistogramQuantile checks nearest-rank quantiles over log buckets
// against the exact values: the estimate must be the smallest bucket
// bound at or above the exact nearest-rank sample.
func TestHistogramQuantile(t *testing.T) {
	bounds := DurationBounds()
	h := NewHistogram(bounds)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	var samples []int64
	// Deterministic skewed population: mostly fast, a slow tail.
	for i := 0; i < 1000; i++ {
		v := int64(10_000 + i*37) // ~10µs cluster
		if i%100 == 0 {
			v = int64(5_000_000 + i*1000) // 5ms tail
		}
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := NearestRank(samples, q)
		got := h.Quantile(q)
		// The estimate is the upper bound of the bucket holding the exact
		// value: at least the exact value, within one bucket factor above.
		if got < exact {
			t.Errorf("q=%v: estimate %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*1.3+1 {
			t.Errorf("q=%v: estimate %d too far above exact %d", q, got, exact)
		}
	}
	if h.Max() != samples[len(samples)-1] {
		t.Errorf("max = %d, want %d", h.Max(), samples[len(samples)-1])
	}

	// Observations beyond the last bound land in the overflow bucket and
	// saturate quantiles at the observed max.
	h2 := NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 50, 500, 5000} {
		h2.Observe(v)
	}
	if got := h2.Quantile(0.999); got != 5000 {
		t.Errorf("overflow quantile = %d, want observed max 5000", got)
	}

	h2.Reset()
	if h2.Count() != 0 || h2.Sum() != 0 || h2.Max() != 0 || h2.Quantile(0.5) != 0 {
		t.Error("histogram Reset incomplete")
	}
}
