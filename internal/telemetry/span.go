package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Span is one completed wall-clock span: a named interval of the serve
// path (a request, a pool wait, a shard's warm-up replay) with parent
// linkage. Start is monotonic nanoseconds since the tracer's epoch, so
// spans recorded by one tracer share a drift-free timeline; Dur is the
// span's duration in nanoseconds.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Attr carries free-form "key=value key=value" annotations (ruleset
	// id, shard index, cache hit/miss, shed reason).
	Attr  string `json:"attr,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// End returns the span's end time in nanoseconds since the tracer epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// DefaultSpanCapacity bounds a span tracer's buffer (~4 MB).
const DefaultSpanCapacity = 1 << 16

// SpanTracer records wall-clock spans up to a fixed capacity, counting
// drops beyond it. Sampling is decided per root span — every sampleEvery-th
// call to Root returns a live span context, the rest return nil — and
// children inherit the decision by construction (a nil parent produces nil
// children). All methods are nil-receiver safe and every SpanCtx method is
// nil safe, so a disabled tracer costs one nil check per instrumentation
// site and no allocation.
//
// Recording is goroutine-safe; ID allocation is atomic, so concurrent
// requests and shard workers share one tracer.
type SpanTracer struct {
	buf    bounded[Span]
	ids    atomic.Uint64
	roots  atomic.Uint64
	sample uint64
	epoch  time.Time
}

// NewSpanTracer returns a tracer retaining up to capacity spans
// (DefaultSpanCapacity if capacity <= 0), recording every sampleEvery-th
// root span (every root if sampleEvery <= 1).
func NewSpanTracer(capacity, sampleEvery int) *SpanTracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &SpanTracer{buf: bounded[Span]{cap: capacity}, sample: uint64(sampleEvery), epoch: time.Now()}
}

// SpanCtx is a live (started, not yet ended) span. The zero of usefulness
// is nil: every method no-ops on a nil receiver, so callers thread span
// contexts unconditionally and pay nothing when tracing is off or the
// root was not sampled. A SpanCtx is owned by the goroutine that created
// it; Child hands an independent context to another goroutine.
type SpanCtx struct {
	t      *SpanTracer
	id     uint64
	parent uint64
	root   uint64
	name   string
	attr   string
	start  time.Time
}

// Root starts a new root span, or returns nil when the tracer is nil or
// this root falls outside the sample.
func (t *SpanTracer) Root(name string) *SpanCtx {
	if t == nil {
		return nil
	}
	if n := t.roots.Add(1); (n-1)%t.sample != 0 {
		return nil
	}
	id := t.ids.Add(1)
	return &SpanCtx{t: t, id: id, root: id, name: name, start: time.Now()}
}

// Child starts a span parented on s (nil in, nil out).
func (s *SpanCtx) Child(name string) *SpanCtx {
	if s == nil {
		return nil
	}
	return &SpanCtx{t: s.t, id: s.t.ids.Add(1), parent: s.id, root: s.root, name: name, start: time.Now()}
}

// SetAttr attaches a free-form annotation, replacing any previous one.
func (s *SpanCtx) SetAttr(attr string) {
	if s != nil {
		s.attr = attr
	}
}

// End completes the span and records it (or counts it dropped when the
// buffer is full). End must be called at most once.
func (s *SpanCtx) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.buf.add(Span{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Attr:   s.attr,
		Start:  s.start.Sub(s.t.epoch).Nanoseconds(),
		Dur:    now.Sub(s.start).Nanoseconds(),
	})
}

// Spans returns a snapshot copy of the recorded spans, in completion
// order (children before their parents).
func (t *SpanTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.buf.snapshot()
}

// Stats returns the number of recorded spans and the number dropped after
// the buffer filled, without copying the buffer.
func (t *SpanTracer) Stats() (buffered int, dropped int64) {
	if t == nil {
		return 0, 0
	}
	return t.buf.stats()
}

// Dropped returns the number of spans discarded after the buffer filled.
func (t *SpanTracer) Dropped() int64 {
	_, dropped := t.Stats()
	return dropped
}

// Reset drops all recorded spans and the drop count. Root sampling state
// and the epoch are kept so timelines stay comparable across resets.
func (t *SpanTracer) Reset() {
	if t != nil {
		t.buf.reset()
	}
}

// WriteJSONL writes one JSON object per recorded span:
//
//	{"id":5,"parent":4,"name":"pool_wait","start_ns":18250,"dur_ns":91}
//
// Flat and stable, directly loadable into jq / pandas.
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, sp := range t.Spans() {
		bw.WriteString(`{"id":`)
		fmt.Fprintf(bw, "%d", sp.ID)
		if sp.Parent != 0 {
			fmt.Fprintf(bw, `,"parent":%d`, sp.Parent)
		}
		fmt.Fprintf(bw, `,"name":%q`, sp.Name)
		if sp.Attr != "" {
			fmt.Fprintf(bw, `,"attr":%q`, sp.Attr)
		}
		if _, err := fmt.Fprintf(bw, `,"start_ns":%d,"dur_ns":%d}%s`, sp.Start, sp.Dur, "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEmitter serializes trace_event objects with the comma bookkeeping
// shared by the device tracer and the span tracer.
type chromeEmitter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

func newChromeEmitter(w io.Writer) *chromeEmitter {
	return &chromeEmitter{bw: bufio.NewWriter(w), first: true}
}

func (c *chromeEmitter) emit(format string, args ...any) error {
	if c.err != nil {
		return c.err
	}
	if !c.first {
		if _, c.err = io.WriteString(c.bw, ",\n"); c.err != nil {
			return c.err
		}
	}
	c.first = false
	_, c.err = fmt.Fprintf(c.bw, format, args...)
	return c.err
}

func (c *chromeEmitter) open() error {
	_, c.err = io.WriteString(c.bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return c.err
}

func (c *chromeEmitter) close() error {
	if c.err != nil {
		return c.err
	}
	if _, c.err = io.WriteString(c.bw, "\n]}\n"); c.err != nil {
		return c.err
	}
	return c.bw.Flush()
}

// spanChromePID is the trace_event process id for wall-clock server
// spans; the device cycle tracer owns pid 0.
const spanChromePID = 1

// writeChromeEvents emits the recorded spans as complete ("X") slices on
// pid 1, one thread per root span so concurrent requests render as
// separate rows. Timestamps are microseconds since the tracer epoch.
func (t *SpanTracer) writeChromeEvents(c *chromeEmitter) error {
	if t == nil {
		return nil
	}
	if err := c.emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"sunder server (wall clock)"}}`, spanChromePID); err != nil {
		return err
	}
	// Map each root id to a compact tid so rows are stable and small.
	tids := map[uint64]int{}
	spans := t.Spans()
	byID := make(map[uint64]Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
		if _, ok := tids[sp.ID]; !ok && sp.Parent == 0 {
			tids[sp.ID] = len(tids) + 1
		}
	}
	// tidFor walks sp's recorded parents to its root. Children carry their
	// root via parent chains that may be partial (unsampled or still-open
	// parents); those fall back to one shared row, tid 0.
	tidFor := func(sp Span) int {
		for sp.Parent != 0 {
			p, ok := byID[sp.Parent]
			if !ok {
				return 0
			}
			sp = p
		}
		return tids[sp.ID]
	}
	for _, sp := range spans {
		if err := c.emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"id":%d,"parent":%d,"attr":%q}}`,
			spanChromePID, tidFor(sp), sp.Start/1e3, max(sp.Dur/1e3, 1), sp.Name, sp.ID, sp.Parent, sp.Attr); err != nil {
			return err
		}
	}
	return nil
}

// WriteMergedChromeTrace writes one Chrome trace_event document holding
// both the device cycle tracer's events (pid 0, one trace microsecond per
// device cycle) and the span tracer's wall-clock spans (pid 1,
// microseconds since the tracer epoch), so device activity and serve-path
// stages land on a single loadable timeline. Either tracer may be nil.
func WriteMergedChromeTrace(w io.Writer, dev *Tracer, spans *SpanTracer) error {
	c := newChromeEmitter(w)
	if err := c.open(); err != nil {
		return err
	}
	if dev != nil {
		if err := dev.writeChromeEvents(c); err != nil {
			return err
		}
	}
	if err := spans.writeChromeEvents(c); err != nil {
		return err
	}
	return c.close()
}
