package report

import "sunder/internal/telemetry"

// Instrument names registered by Sunder.AttachTelemetry. The pu_* families
// are CounterVecs indexed by PU; their registry dump includes a *_total
// line, which by construction equals the corresponding aggregate
// (pu_flushes_total == Result().Flushes, pu_stall_cycles_total ==
// device_stall_cycles == Result().StallCycles). The machine's own counters
// (device_kernel_cycles, device_reports, device_report_cycles) are
// core's.
const (
	MetricStallCycles   = "device_stall_cycles"
	MetricDrainedEnts   = "device_drained_entries"
	MetricPUEntries     = "pu_report_entries"
	MetricPUMarkers     = "pu_stride_markers"
	MetricPUFlushes     = "pu_flushes"
	MetricPUSummaries   = "pu_summarizations"
	MetricPUStallCycles = "pu_stall_cycles"
	MetricOccupancy     = "report_region_occupancy"
)

// telemetrySink holds instruments pre-resolved at attach time, so that
// report-path updates are direct field accesses rather than registry
// lookups.
type telemetrySink struct {
	stallCycles *telemetry.Counter
	drained     *telemetry.Counter
	puEntries   *telemetry.CounterVec
	puMarkers   *telemetry.CounterVec
	puFlushes   *telemetry.CounterVec
	puSummaries *telemetry.CounterVec
	puStalls    *telemetry.CounterVec
	occupancy   *telemetry.Histogram
	tracer      *telemetry.Tracer
}

// AttachTelemetry connects a collector to the model: the report counters
// and the occupancy histogram are registered in the collector's registry,
// and if the collector has a tracer, report-write, stride-marker, flush,
// overflow and summarize events are recorded with cycle timestamps.
// Passing nil detaches. Reset does not reset the collector.
func (s *Sunder) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		s.tel = nil
		return
	}
	n := len(s.pus)
	s.tel = &telemetrySink{
		stallCycles: c.Counter(MetricStallCycles),
		drained:     c.Counter(MetricDrainedEnts),
		puEntries:   c.CounterVec(MetricPUEntries, n),
		puMarkers:   c.CounterVec(MetricPUMarkers, n),
		puFlushes:   c.CounterVec(MetricPUFlushes, n),
		puSummaries: c.CounterVec(MetricPUSummaries, n),
		puStalls:    c.CounterVec(MetricPUStallCycles, n),
		occupancy:   c.Histogram(MetricOccupancy, telemetry.LinearBounds(s.capacity, 8)),
		tracer:      c.Tracer(),
	}
}

// event records one trace event if tracing is enabled.
func (t *telemetrySink) event(kind telemetry.EventKind, cycle, stall int64, pu, occ int) {
	if t.tracer == nil {
		return
	}
	t.tracer.Record(telemetry.Event{
		Cycle: cycle,
		Stall: stall,
		PU:    int32(pu),
		Occ:   int32(occ),
		Kind:  kind,
	})
}
