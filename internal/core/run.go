package core

import (
	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// Result aggregates a machine run.
type Result struct {
	KernelCycles       int64
	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int
	Events             []funcsim.ReportEvent
}

// RunOptions configures a Machine run.
type RunOptions struct {
	// RecordEvents keeps the full report event list.
	RecordEvents bool
	// OnReportCycle, when non-nil, receives every report cycle's reporting
	// states in cycle order, as a reporting model consumes them
	// (report.Sunder.OnReportCycle). The slice is not retained.
	OnReportCycle func(cycle int64, states []automata.StateID)
}

// Run streams a unit input (padded to the rate) through the machine and
// returns aggregate results. Report counting goes through the Reducer, so
// a Machine run and a funcsim run of the same automaton agree exactly.
func (m *Machine) Run(units []funcsim.Unit, opts RunOptions) *Result {
	units = funcsim.PadUnits(units, m.cfg.Rate)
	res := &Result{}
	red := NewReducer(m.reports)
	red.Reset(m)
	var scratch []automata.StateID
	var kept []int32
	for off := 0; off < len(units); off += m.cfg.Rate {
		cycle := m.kernelCycles
		scratch = m.Step(units[off:off+m.cfg.Rate], scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		if opts.OnReportCycle != nil {
			opts.OnReportCycle(cycle, scratch)
		}
		kept = red.Cycle(scratch, kept[:0])
		if opts.RecordEvents {
			res.Events = m.reports.AppendEvents(res.Events, cycle, kept)
		}
	}
	res.Reports = red.Reports
	res.ReportCycles = red.ReportCycles
	res.MaxReportsPerCycle = red.MaxReportsPerCycle
	res.KernelCycles = m.kernelCycles
	return res
}
