package sunder

import (
	"io"

	"sunder/internal/report"
	"sunder/internal/telemetry"
)

// TelemetryOptions configures a Telemetry instance.
type TelemetryOptions struct {
	// Trace enables cycle-level event tracing (report writes, stride
	// markers, flushes, FIFO overflows, summarizations). Without it only
	// counters and histograms are collected.
	Trace bool
	// TraceCapacity caps the number of buffered trace events; events
	// beyond it are counted as dropped. 0 selects the default (1M).
	TraceCapacity int
	// Spans enables wall-clock span tracing: sampled, parent-linked
	// begin/end intervals recorded by the serve path (requests, pool
	// waits) and ScanParallel (a parallel_run with a shard span per
	// share and a warmup span per warm-up replay). Spans live beside the
	// cycle-level event trace and merge with it into one Chrome trace
	// timeline (WriteMergedChromeTrace).
	Spans bool
	// SpanCapacity caps buffered spans (0 selects the default, 64k);
	// SpanSampleEvery records every Nth root span (<= 1 records all).
	SpanCapacity    int
	SpanSampleEvery int
}

// Telemetry is a device observability collector: per-PU counters, a
// report-region occupancy histogram and (optionally) a cycle-level event
// trace. Attach it to an Engine with SetTelemetry; it accumulates across
// scans until Reset. Counters and the trace may be snapshotted
// concurrently with running scans, and parallel scan workers aggregate
// into the same instruments: after a ScanParallel on the machine, every
// device instrument equals the sequential scan's (see ScanParallel).
type Telemetry struct {
	col *telemetry.Collector
}

// NewTelemetry returns an empty collector.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	col := telemetry.NewCollector()
	if opts.Trace {
		col.EnableTrace(opts.TraceCapacity)
	}
	if opts.Spans {
		col.EnableSpans(opts.SpanCapacity, opts.SpanSampleEvery)
	}
	return &Telemetry{col: col}
}

// SetTelemetry attaches a collector to the engine: calls that start after
// it feed it (each runner gets the collector when its call takes it).
// Passing nil detaches, restoring the zero-overhead disabled path (a
// single branch per instrumented site). It is safe to call concurrently
// with scans.
func (e *Engine) SetTelemetry(t *Telemetry) {
	var c *telemetry.Collector
	if t != nil {
		c = t.col
	}
	e.tel.Store(c)
}

// Reset zeroes all counters and drops buffered trace events.
func (t *Telemetry) Reset() { t.col.Reset() }

// CounterValue returns the current value of a named aggregate counter —
// e.g. MetricPrefilterSkippedCycles — creating it at zero if nothing has
// recorded to it yet. It is safe to call concurrently with running scans.
func (t *Telemetry) CounterValue(name string) int64 {
	return t.col.Counter(name).Load()
}

// WriteMetrics writes a flat text snapshot of every counter and
// histogram: aggregate device counters (device_kernel_cycles,
// device_stall_cycles, …), per-PU families with {pu="N"} labels and a
// *_total sum line each, and the report-region occupancy histogram.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	return t.col.WriteMetrics(w)
}

// WriteChromeTrace writes the buffered event trace in Chrome trace_event
// JSON format, loadable in chrome://tracing or Perfetto: each PU is a
// thread, one trace microsecond is one device cycle, stall-causing
// events render as duration slices and report writes as instants, with
// per-PU occupancy counter tracks. Returns nil output errors only;
// without tracing enabled it writes an empty trace.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	tr := t.col.Tracer()
	if tr == nil {
		tr = telemetry.NewTracer(1)
	}
	return tr.WriteChromeTrace(w)
}

// WriteTraceJSONL writes the buffered event trace as one JSON object per
// line ({"cycle":…,"pu":…,"kind":…,"stall":…,"occ":…}).
func (t *Telemetry) WriteTraceJSONL(w io.Writer) error {
	tr := t.col.Tracer()
	if tr == nil {
		return nil
	}
	return tr.WriteJSONL(w)
}

// TraceEvents returns the number of buffered trace events and the number
// dropped after the buffer filled.
func (t *Telemetry) TraceEvents() (buffered int, dropped int64) {
	tr := t.col.Tracer()
	if tr == nil {
		return 0, 0
	}
	return len(tr.Events()), tr.Dropped()
}

// Spans returns the wall-clock span tracer, or nil when span tracing is
// disabled. A nil tracer is safe to use — Root returns nil and every
// span method no-ops — so callers instrument unconditionally. The return
// type lives in an internal package; external callers interact with it
// through its methods (Root/Child/End and the Write* exporters).
func (t *Telemetry) Spans() *telemetry.SpanTracer {
	return t.col.Spans()
}

// SpanStats returns the number of recorded spans and the number dropped
// after the span buffer filled.
func (t *Telemetry) SpanStats() (buffered int, dropped int64) {
	sp := t.col.Spans()
	if sp == nil {
		return 0, 0
	}
	return len(sp.Spans()), sp.Dropped()
}

// WriteSpansJSONL writes the recorded wall-clock spans as one JSON object
// per line ({"id":…,"parent":…,"name":…,"start_ns":…,"dur_ns":…}).
// Without span tracing enabled it writes nothing.
func (t *Telemetry) WriteSpansJSONL(w io.Writer) error {
	return t.col.Spans().WriteJSONL(w)
}

// WriteMergedChromeTrace writes one Chrome trace_event document holding
// both the device cycle trace (pid 0, one trace microsecond per device
// cycle) and the wall-clock spans (pid 1, microseconds since the span
// tracer's epoch), so device events and serve-path stages load on a
// single chrome://tracing / Perfetto timeline. Disabled tracers
// contribute no events; the document is always valid JSON.
func (t *Telemetry) WriteMergedChromeTrace(w io.Writer) error {
	return telemetry.WriteMergedChromeTrace(w, t.col.Tracer(), t.col.Spans())
}

// PUStats is the per-processing-unit breakdown of a scan's device
// activity. It is always collected (the counters move only on the
// reporting path), independent of SetTelemetry.
type PUStats struct {
	// PU is the processing-unit index.
	PU int
	// ReportEntries is the number of report entries written into this
	// PU's region; StrideMarkers counts the all-zero cycle-stride
	// entries among the region writes.
	ReportEntries int64
	StrideMarkers int64
	// Flushes counts whole-region flushes (or FIFO overflow waits);
	// Summaries counts in-place summarizations.
	Flushes   int64
	Summaries int64
	// StallCycles is the stall time attributed to this PU's region.
	// Regions filling in the same cycle share one stall window, charged
	// to the first full PU, so these sum exactly to Stats.StallCycles.
	StallCycles int64
	// PeakOccupancy is the region's entry high-water mark; Occupancy is
	// the entry count still resident at the end of the scan.
	PeakOccupancy int
	Occupancy     int
}

// puStats returns the n per-PU rows of a run's report model in the public
// type, read from the model once. A nil model — a leg that models no
// report region — yields zeroed rows.
func puStats(model *report.Sunder, n int) []PUStats {
	out := make([]PUStats, n)
	for i := range out {
		out[i].PU = i
		if model == nil {
			continue
		}
		p := model.PU(i)
		out[i] = PUStats{
			PU:            i,
			ReportEntries: p.ReportEntries,
			StrideMarkers: p.StrideMarkers,
			Flushes:       p.Flushes,
			Summaries:     p.Summaries,
			StallCycles:   p.StallCycles,
			PeakOccupancy: p.PeakOccupancy,
			Occupancy:     p.Occupancy,
		}
	}
	return out
}
