// Package telemetry is the cycle-level observability layer of the
// reproduction: a counter/histogram registry fed by the architectural
// simulator's hot paths and an event tracer that records reporting
// activity (report writes, stride markers, flushes, FIFO overflows,
// summarizations) with cycle timestamps.
//
// The layer is designed around a zero-overhead-when-disabled contract:
// a Machine holds a nil *Collector by default and every instrumentation
// site is a single nil check; nothing in this package is on the hot path
// unless a collector is attached. Counters are atomic so snapshots may be
// taken from another goroutine while a scan is running; the tracer is
// single-writer, matching the Machine's single-goroutine execution model.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// CounterVec is a fixed-size family of counters indexed by an integer
// label — per-PU counters use the PU index. The size is fixed at
// registration so that hot-path access is a bounds-checked slice index,
// not a map lookup.
type CounterVec struct {
	cells []Counter
}

// Inc adds one to cell i.
func (v *CounterVec) Inc(i int) { v.cells[i].v.Add(1) }

// Add adds n to cell i.
func (v *CounterVec) Add(i int, n int64) { v.cells[i].v.Add(n) }

// Load returns cell i's value.
func (v *CounterVec) Load(i int) int64 { return v.cells[i].v.Load() }

// Len returns the number of cells.
func (v *CounterVec) Len() int { return len(v.cells) }

// Sum returns the total across all cells.
func (v *CounterVec) Sum() int64 {
	var n int64
	for i := range v.cells {
		n += v.cells[i].v.Load()
	}
	return n
}

// Histogram is a fixed-bucket histogram of int64 observations. Bucket i
// counts observations v with v <= bounds[i] (and v > bounds[i-1]); one
// extra overflow bucket counts observations above the last bound.
// Observation is atomic per bucket, so concurrent snapshots see a
// consistent-enough view for reporting purposes.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns a histogram with the given bucket bounds (sorted
// copies): Registry.Histogram's, and that of callers that manage their
// own instrument families (per-ruleset latency histograms).
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Reset zeroes the histogram's counts, sum and max.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.n.Store(0)
	h.max.Store(0)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns the bucket upper bounds and the per-bucket counts (the
// final count is the overflow bucket).
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// LinearBounds returns n evenly spaced bucket bounds covering (0, max]:
// max/n, 2·max/n, …, max. It is the default bucket layout for
// report-region occupancy (max = region capacity).
func LinearBounds(max, n int) []int64 {
	if n < 1 {
		n = 1
	}
	if max < n {
		max = n
	}
	out := make([]int64, n)
	for i := 1; i <= n; i++ {
		out[i-1] = int64(i * max / n)
	}
	// Deduplicate in case of tiny max values.
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Registry holds named instruments. Registration is synchronized (it
// happens at attach time); the instruments themselves are lock-free.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	vecs   map[string]*CounterVec
	histos map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		vecs:   make(map[string]*CounterVec),
		histos: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// CounterValue returns the named counter's value, or 0 when nothing has
// registered it. Unlike Counter it registers nothing, so reading a
// counter does not add a line to WriteTo's dump.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c := r.ctrs[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// CounterVec returns the named counter family with at least n cells,
// growing an existing family if a larger n is requested. Existing cell
// values are preserved across growth.
func (r *Registry) CounterVec(name string, n int) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &CounterVec{cells: make([]Counter, n)}
		r.vecs[name] = v
	} else if len(v.cells) < n {
		cells := make([]Counter, n)
		for i := range v.cells {
			cells[i].v.Store(v.cells[i].v.Load())
		}
		v.cells = cells
	}
	return v
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls keep the original bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histos[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histos[name] = h
	}
	return h
}

// Reset zeroes every registered instrument, keeping registrations (and
// the pointers already handed out) valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ctrs {
		c.v.Store(0)
	}
	for _, v := range r.vecs {
		for i := range v.cells {
			v.cells[i].v.Store(0)
		}
	}
	for _, h := range r.histos {
		h.Reset()
	}
}

// WriteTo dumps every instrument in a flat, greppable text format:
//
//	name value
//	name{pu="3"} value
//	name_bucket{le="64"} value
//
// Families are sorted by name; a CounterVec additionally emits a
// name_total line holding the sum of its cells, so per-PU counters can be
// checked against aggregates mechanically.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, name := range sortedKeys(r.ctrs) {
		if err := emit("%s %d\n", name, r.ctrs[name].Load()); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(r.vecs) {
		v := r.vecs[name]
		for i := range v.cells {
			if err := emit("%s{pu=\"%d\"} %d\n", name, i, v.cells[i].v.Load()); err != nil {
				return total, err
			}
		}
		if err := emit("%s_total %d\n", name, v.Sum()); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(r.histos) {
		h := r.histos[name]
		bounds, counts := h.Buckets()
		cum := int64(0)
		for i, b := range bounds {
			cum += counts[i]
			if err := emit("%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
				return total, err
			}
		}
		cum += counts[len(counts)-1]
		if err := emit("%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return total, err
		}
		if err := emit("%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count()); err != nil {
			return total, err
		}
	}
	return total, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Collector bundles a registry with an optional cycle-event tracer and an
// optional wall-clock span tracer. It is the unit attached to a Machine;
// a nil *Collector means telemetry is disabled and costs one branch per
// instrumentation site.
type Collector struct {
	*Registry
	tracer *Tracer
	spans  *SpanTracer
}

// NewCollector returns a collector with a fresh registry and no tracer.
func NewCollector() *Collector {
	return &Collector{Registry: NewRegistry()}
}

// EnableTrace attaches a tracer retaining up to capacity events
// (DefaultTraceCapacity if capacity <= 0) and returns it.
func (c *Collector) EnableTrace(capacity int) *Tracer {
	c.tracer = NewTracer(capacity)
	return c.tracer
}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (c *Collector) Tracer() *Tracer { return c.tracer }

// EnableSpans attaches a wall-clock span tracer retaining up to capacity
// spans (DefaultSpanCapacity if capacity <= 0), sampling every
// sampleEvery-th root span, and returns it.
func (c *Collector) EnableSpans(capacity, sampleEvery int) *SpanTracer {
	c.spans = NewSpanTracer(capacity, sampleEvery)
	return c.spans
}

// Spans returns the attached span tracer, or nil when span tracing is
// disabled (nil is a valid no-op tracer for every SpanTracer method).
func (c *Collector) Spans() *SpanTracer {
	if c == nil {
		return nil
	}
	return c.spans
}

// Reset zeroes all instruments and drops buffered trace events and spans.
func (c *Collector) Reset() {
	c.Registry.Reset()
	if c.tracer != nil {
		c.tracer.Reset()
	}
	if c.spans != nil {
		c.spans.Reset()
	}
}

// WriteMetrics writes the registry snapshot to w.
func (c *Collector) WriteMetrics(w io.Writer) error {
	_, err := c.Registry.WriteTo(w)
	return err
}
