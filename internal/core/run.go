package core

import (
	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// Result aggregates a machine run; the stall/flush fields are the Table 4
// columns.
type Result struct {
	KernelCycles int64
	StallCycles  int64
	Flushes      int64
	Summaries    int64

	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int
	Events             []funcsim.ReportEvent
}

// Overhead returns the reporting slowdown (kernel+stall)/kernel.
func (r *Result) Overhead() float64 {
	if r.KernelCycles == 0 {
		return 1
	}
	return float64(r.KernelCycles+r.StallCycles) / float64(r.KernelCycles)
}

// RunOptions configures a Machine run.
type RunOptions struct {
	// RecordEvents keeps the full report event list.
	RecordEvents bool
}

// Run streams a unit input (padded to the rate) through the machine and
// returns aggregate results. Report counting goes through the Reducer, so
// a Machine run and a funcsim run of the same automaton agree exactly.
func (m *Machine) Run(units []funcsim.Unit, opts RunOptions) *Result {
	units = funcsim.PadUnits(units, m.cfg.Rate)
	res := &Result{}
	red := NewReducer(m.a, opts.RecordEvents)
	red.Reset(m)
	var scratch []automata.StateID
	for off := 0; off < len(units); off += m.cfg.Rate {
		cycle := m.kernelCycles
		scratch = m.Step(units[off:off+m.cfg.Rate], scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		res.Events = red.Cycle(cycle, scratch, res.Events)
	}
	res.Reports = red.Reports
	res.ReportCycles = red.ReportCycles
	res.MaxReportsPerCycle = red.MaxReportsPerCycle
	res.KernelCycles = m.kernelCycles
	res.StallCycles = m.stallCycles
	res.Flushes = m.Flushes()
	res.Summaries = m.Summaries()
	return res
}
