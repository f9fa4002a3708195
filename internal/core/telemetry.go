package core

import (
	"sunder/internal/telemetry"
)

// Instrument names registered by AttachTelemetry: the cycles a machine
// steps, and the reports and report cycles its Reducer counts. The report
// region's instruments (stalls, flushes, per-PU families, occupancy) are
// the reporting model's (report.Sunder.AttachTelemetry).
const (
	MetricKernelCycles = "device_kernel_cycles"
	MetricReports      = "device_reports"
	MetricReportCycles = "device_report_cycles"
)

// telemetrySink holds instruments pre-resolved at attach time, so that
// hot-path updates are direct field accesses rather than registry
// lookups. A nil sink (the default) disables all instrumentation at the
// cost of one branch per site.
type telemetrySink struct {
	col          *telemetry.Collector
	kernelCycles *telemetry.Counter
	reports      *telemetry.Counter
	reportCycles *telemetry.Counter
}

// AttachTelemetry connects a collector to the machine: its counters are
// registered in the collector's registry. Passing nil detaches and
// restores the zero-overhead disabled path. The collector is not reset by
// Machine.Reset, so it can aggregate across runs; call Collector.Reset for
// per-run snapshots.
func (m *Machine) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		m.tel = nil
		return
	}
	m.tel = &telemetrySink{
		col:          c,
		kernelCycles: c.Counter(MetricKernelCycles),
		reports:      c.Counter(MetricReports),
		reportCycles: c.Counter(MetricReportCycles),
	}
}

// MuteTelemetry stops (true) and resumes (false) the attached collector's
// counting without detaching it: a muted machine steps silently, and
// resuming looks nothing up again. Telemetry reports nil while muted.
func (m *Machine) MuteTelemetry(mute bool) {
	if mute {
		m.muted, m.tel = m.tel, nil
	} else if m.muted != nil {
		m.tel, m.muted = m.muted, nil
	}
}

// Telemetry returns the attached collector, or nil.
func (m *Machine) Telemetry() *telemetry.Collector {
	if m.tel == nil {
		return nil
	}
	return m.tel.col
}
