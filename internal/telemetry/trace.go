package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies one traced device event.
type EventKind uint8

const (
	// EventReportWrite is one report entry written into a PU's report
	// region through Port 1.
	EventReportWrite EventKind = iota
	// EventStrideMarker is an all-zero entry carrying a cycle-stride
	// delta (Section 7.1).
	EventStrideMarker
	// EventFlush is a whole-region flush (non-FIFO full-region action).
	EventFlush
	// EventOverflow is a FIFO overflow: the region filled faster than
	// the continuous drain and matching waited for one entry.
	EventOverflow
	// EventSummarize is an in-place 16-row NOR summarization of the
	// region (on-full or host-requested).
	EventSummarize
)

// String returns the event kind's stable wire name.
func (k EventKind) String() string {
	switch k {
	case EventReportWrite:
		return "report_write"
	case EventStrideMarker:
		return "stride_marker"
	case EventFlush:
		return "flush"
	case EventOverflow:
		return "fifo_overflow"
	case EventSummarize:
		return "summarize"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one traced device event. Cycle is the kernel-cycle timestamp;
// Stall is the stall duration in cycles charged for the event (0 for
// report writes and for events sharing another PU's stall window); Occ is
// the PU's report-region occupancy after the event.
type Event struct {
	Cycle int64
	Stall int64
	PU    int32
	Occ   int32
	Kind  EventKind
}

// DefaultTraceCapacity bounds a tracer's buffered events (~24 MB).
const DefaultTraceCapacity = 1 << 20

// Tracer buffers device events up to a fixed capacity, counting drops
// beyond it. It is goroutine-safe: parallel shard workers sharing one
// collector record through the same tracer, and snapshots (Events, the
// Write* methods) may run concurrently with recording. Note that under
// concurrent recording the interleaving of events from different workers
// is nondeterministic (each worker's own events stay in order).
type Tracer struct {
	buf bounded[Event]
}

// NewTracer returns a tracer retaining up to capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: bounded[Event]{cap: capacity}}
}

// Record buffers one event, or counts it dropped when full.
func (t *Tracer) Record(ev Event) { t.buf.add(ev) }

// Events returns a snapshot copy of the buffered events.
func (t *Tracer) Events() []Event { return t.buf.snapshot() }

// Stats returns the number of buffered events and the number dropped
// after the buffer filled, without copying the buffer.
func (t *Tracer) Stats() (buffered int, dropped int64) { return t.buf.stats() }

// Reset drops all buffered events and the drop count.
func (t *Tracer) Reset() { t.buf.reset() }

// bounded is the goroutine-safe store of Tracer and SpanTracer: up to cap
// items in arrival order, and a count of the items it had no room for.
type bounded[T any] struct {
	mu      sync.Mutex
	items   []T
	cap     int
	dropped int64
}

func (b *bounded[T]) add(v T) {
	b.mu.Lock()
	if len(b.items) >= b.cap {
		b.dropped++
	} else {
		b.items = append(b.items, v)
	}
	b.mu.Unlock()
}

func (b *bounded[T]) snapshot() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]T(nil), b.items...)
}

// stats reads the item count and the drop count under one lock.
func (b *bounded[T]) stats() (int, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items), b.dropped
}

func (b *bounded[T]) reset() {
	b.mu.Lock()
	b.items = b.items[:0]
	b.dropped = 0
	b.mu.Unlock()
}

// WriteJSONL writes one JSON object per event:
//
//	{"cycle":184,"pu":3,"kind":"flush","stall":27,"occ":0}
//
// The fields are flat and stable so the stream is directly loadable into
// jq / pandas for stall-timeline analysis.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(bw, "{\"cycle\":%d,\"pu\":%d,\"kind\":%q,\"stall\":%d,\"occ\":%d}\n",
			ev.Cycle, ev.PU, ev.Kind.String(), ev.Stall, ev.Occ); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeChromeEvents emits the device events on pid 0 through the shared
// emitter, so they can be merged with wall-clock spans (pid 1) into one
// document (see WriteMergedChromeTrace).
func (t *Tracer) writeChromeEvents(c *chromeEmitter) error {
	// Name the process and each PU thread that appears in the trace.
	if err := c.emit(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"sunder device"}}`); err != nil {
		return err
	}
	seenPU := map[int32]bool{}
	for _, ev := range t.Events() {
		if !seenPU[ev.PU] {
			seenPU[ev.PU] = true
			if err := c.emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"PU %d"}}`,
				ev.PU, ev.PU); err != nil {
				return err
			}
		}
		var err error
		switch {
		case ev.Stall > 0:
			err = c.emit(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"cycle":%d,"stall_cycles":%d,"occupancy":%d}}`,
				ev.PU, ev.Cycle, ev.Stall, ev.Kind.String(), ev.Cycle, ev.Stall, ev.Occ)
		default:
			err = c.emit(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%q,"args":{"cycle":%d,"occupancy":%d}}`,
				ev.PU, ev.Cycle, ev.Kind.String(), ev.Cycle, ev.Occ)
		}
		if err != nil {
			return err
		}
		if ev.Kind == EventReportWrite || ev.Kind == EventFlush || ev.Kind == EventOverflow || ev.Kind == EventSummarize {
			if err := c.emit(`{"ph":"C","pid":0,"tid":%d,"ts":%d,"name":"occupancy PU %d","args":{"entries":%d}}`,
				ev.PU, ev.Cycle, ev.PU, ev.Occ); err != nil {
				return err
			}
		}
	}
	return nil
}
