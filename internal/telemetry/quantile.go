package telemetry

import "math"

// NearestRankIndex returns the 0-based index of the q-quantile of n
// sorted samples under the nearest-rank definition, ceil(q·n)-1, clamped
// to [0, n-1]. It is the single quantile-position rule shared by the
// benchmark's client-side percentiles (exact, over raw sorted latencies)
// and the server-side duration histograms (over cumulative bucket counts),
// so the two views of one latency population are directly comparable.
func NearestRankIndex(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// NearestRank returns the q-quantile of the ascending-sorted samples
// under the nearest-rank definition, or 0 when empty.
func NearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[NearestRankIndex(len(sorted), q)]
}

// LogBounds returns log-spaced histogram bucket bounds covering [lo, hi]
// with stepsPerDecade bounds per factor of 10 (so the worst-case relative
// quantile error is 10^(1/stepsPerDecade)-1). Bounds are deduplicated
// after integer rounding; the final bound is >= hi.
func LogBounds(lo, hi int64, stepsPerDecade int) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if stepsPerDecade < 1 {
		stepsPerDecade = 1
	}
	factor := math.Pow(10, 1/float64(stepsPerDecade))
	var out []int64
	v := float64(lo)
	for {
		b := int64(math.Round(v))
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
		if b >= hi {
			return out
		}
		v *= factor
	}
}

// DurationBounds is the default log-spaced bucket layout for wall-clock
// duration histograms: 1µs to 100s in nanoseconds, 9 buckets per decade
// (worst-case quantile error ~29%).
func DurationBounds() []int64 {
	return LogBounds(1_000, 100_000_000_000, 9)
}

// Quantile estimates the q-quantile of the histogram's observations under
// the nearest-rank definition: the upper bound of the bucket holding the
// rank-th observation, or the maximum observed value for ranks that land
// in the overflow bucket. With log-spaced bounds the estimate's relative
// error is bounded by one bucket's width. Concurrent Observe calls make
// the result approximate in the usual snapshot sense; with no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.n.Load()
	if n <= 0 {
		return 0
	}
	rank := int64(NearestRankIndex(int(n), q)) + 1
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.bounds[i]
		}
	}
	return h.max.Load()
}

// Max returns the largest observation since the last reset (0 if none).
func (h *Histogram) Max() int64 { return h.max.Load() }
