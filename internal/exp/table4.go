package exp

import (
	"io"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/workload"
)

// Table4Row holds the reporting overheads of one benchmark under the four
// compared reporting architectures (Table 4): Sunder without and with the
// FIFO drain strategy (both at 4-nibble processing), and the AP and AP+RAD
// baselines (8-bit processing, as they are fixed-rate designs).
type Table4Row struct {
	Name string

	SunderFlushes      int64
	SunderOverhead     float64
	SunderFIFOFlushes  int64
	SunderFIFOOverhead float64
	APOverhead         float64
	RADOverhead        float64
	// ReportColumns is the per-PU report budget the placement needed
	// (12 unless the benchmark's transformed components carry more).
	ReportColumns int
	// PUs is the machine size at 4-nibble rate.
	PUs int
}

// Table4 measures reporting overheads for every benchmark.
func Table4(opts Options) ([]Table4Row, error) {
	var rows []Table4Row
	for _, spec := range workload.All() {
		w, err := workload.Get(spec.Name, opts.Scale, opts.InputLen)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Name: spec.Name}

		// Sunder at 4-nibble processing: one device run feeds the report
		// models w/o and w/ FIFO.
		m, err := buildMachine(w, 4, core.DefaultConfig(4), opts.Telemetry)
		if err != nil {
			return nil, err
		}
		flush := reportModel(m, false, false, opts.Telemetry)
		fifo := reportModel(m, true, false, opts.Telemetry)
		kernel := runReporting(m, funcsim.BytesToUnits(w.Input, 4), flush, fifo).KernelCycles
		row.SunderFlushes = flush.Result().Flushes
		row.SunderOverhead = flush.Result().Overhead(kernel)
		row.SunderFIFOFlushes = fifo.Result().Flushes
		row.SunderFIFOOverhead = fifo.Result().Overhead(kernel)
		row.ReportColumns = m.Config().ReportColumns
		row.PUs = m.NumPUs()

		// AP and AP+RAD driven by the byte-level report trace.
		p := report.DefaultParams()
		ap := report.NewAP(w.Automaton, p)
		rad := report.NewRAD(w.Automaton, p)
		sim := funcsim.NewByteSimulator(w.Automaton)
		res := sim.Run(w.Input, funcsim.Options{
			OnReportCycle: func(cycle int64, states []automata.StateID) {
				ap.OnReportCycle(cycle, states)
				rad.OnReportCycle(cycle, states)
			},
		})
		row.APOverhead = ap.Result().Overhead(res.Cycles)
		row.RADOverhead = rad.Result().Overhead(res.Cycles)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4Averages returns the mean overheads across benchmarks (the paper's
// Avg. Overhead row).
func Table4Averages(rows []Table4Row) (sunder, sunderFIFO, ap, rad float64) {
	for _, r := range rows {
		sunder += r.SunderOverhead
		sunderFIFO += r.SunderFIFOOverhead
		ap += r.APOverhead
		rad += r.RADOverhead
	}
	n := float64(len(rows))
	return sunder / n, sunderFIFO / n, ap / n, rad / n
}

// FprintTable4 renders the rows in the paper's layout.
func FprintTable4(w io.Writer, rows []Table4Row, opts Options) {
	fprintf(w, "Table 4: reporting overhead for four-nibble processing (scale=%.3g, input=%d bytes)\n",
		opts.Scale, opts.InputLen)
	fprintf(w, "%-18s | %9s %9s | %9s %9s | %9s | %9s | %4s %4s\n", "Benchmark",
		"#Flush", "w/o FIFO", "#Flush", "w/ FIFO", "AP", "AP+RAD", "m", "PUs")
	for _, r := range rows {
		fprintf(w, "%-18s | %9d %8.2fx | %9d %8.2fx | %8.2fx | %8.2fx | %4d %4d\n",
			r.Name, r.SunderFlushes, r.SunderOverhead,
			r.SunderFIFOFlushes, r.SunderFIFOOverhead,
			r.APOverhead, r.RADOverhead, r.ReportColumns, r.PUs)
	}
	s, sf, ap, rad := Table4Averages(rows)
	fprintf(w, "%-18s | %9s %8.2fx | %9s %8.2fx | %8.2fx | %8.2fx |\n",
		"Avg. Overhead", "", s, "", sf, ap, rad)
}
