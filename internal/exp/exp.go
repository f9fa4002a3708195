// Package exp contains one runner per table and figure of the paper's
// evaluation (Section 7), plus the ablation studies listed in DESIGN.md.
// Each runner measures its numbers by generating workloads, transforming
// them, and simulating — nothing is hard-coded except the published
// hardware constants in internal/hardware.
package exp

import (
	"fmt"
	"io"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// Options scales every experiment. The paper's setting is Scale=1,
// InputLen=1<<20 (1MB); the defaults are reduced for quick runs.
type Options struct {
	// Scale multiplies benchmark state counts (0 < Scale ≤ 1).
	Scale float64
	// InputLen is the input stream length in bytes.
	InputLen int
	// Telemetry, when non-nil, is attached to every machine and report
	// model the experiment runners build, aggregating device counters and
	// trace events across all simulated workloads (per-PU labels then refer
	// to each machine's own PU indices).
	Telemetry *telemetry.Collector
}

// DefaultOptions returns the reduced-scale configuration used by tests and
// default benches.
func DefaultOptions() Options {
	return Options{Scale: workload.DefaultScale, InputLen: workload.DefaultInputLen}
}

// FullOptions returns the paper-scale configuration (1MB input, full-size
// automata). Dense benchmarks take considerably longer at this scale.
func FullOptions() Options {
	return Options{Scale: 1.0, InputLen: 1 << 20}
}

// buildMachine transforms a byte automaton to the rate, builds the device
// (core.Build: the paper's m = 12 where every component fits it, the
// closest feasible budget where not, as m is a configuration parameter)
// and attaches the optional telemetry collector.
func buildMachine(w *workload.Workload, rate int, cfg core.Config, tel *telemetry.Collector) (*core.Machine, error) {
	ua, err := transform.ToRate(w.Automaton, rate)
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", w.Spec.Name, err)
	}
	m, err := core.Build(ua, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Spec.Name, err)
	}
	if tel != nil {
		m.AttachTelemetry(tel)
	}
	return m, nil
}

// reportModel returns a report model of m's device, with the FIFO drain
// and summarize-on-full strategies as chosen, fed telemetry into tel.
func reportModel(m *core.Machine, fifo, summarize bool, tel *telemetry.Collector) *report.Sunder {
	cfg := m.Config()
	cfg.FIFO, cfg.SummarizeOnFull = fifo, summarize
	md := report.NewSunder(m.Reports(), cfg)
	md.AttachTelemetry(tel)
	return md
}

// runReporting steps m over units once and feeds its report-state stream
// to every model, each finished at the run's end.
func runReporting(m *core.Machine, units []funcsim.Unit, models ...*report.Sunder) *core.Result {
	res := m.Run(units, core.RunOptions{OnReportCycle: func(cycle int64, states []automata.StateID) {
		for _, md := range models {
			md.OnReportCycle(cycle, states)
		}
	}})
	for _, md := range models {
		md.Finish(res.KernelCycles)
	}
	return res
}

// fprintf writes, ignoring errors — the runners print to a caller-supplied
// sink where short writes are the caller's concern.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
