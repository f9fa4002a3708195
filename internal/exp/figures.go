package exp

import (
	"io"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/hardware"
	"sunder/internal/mapping"
)

// Figure8Row is one bar group of Figure 8: an architecture's throughput
// under AP-style reporting and under AP+RAD reporting, plus Sunder's
// advantage over it.
type Figure8Row struct {
	Arch             hardware.Arch
	ThroughputAP     float64 // Gbit/s assuming AP-style reporting overhead
	ThroughputRAD    float64 // Gbit/s assuming AP+RAD reporting overhead
	SunderSpeedupAP  float64
	SunderSpeedupRAD float64
}

// Figure8 computes throughput from the Table 5 frequencies and the average
// reporting overheads measured in Table 4. Sunder uses its own (measured)
// overhead; the others are charged the AP-style or RAD overhead, exactly as
// in Section 7.4.
func Figure8(t4 []Table4Row) []Figure8Row {
	sunderOv, _, apOv, radOv := Table4Averages(t4)
	sunder := hardware.Throughput(hardware.ArchSunder, sunderOv)
	var rows []Figure8Row
	for _, a := range []hardware.Arch{hardware.ArchSunder, hardware.ArchImpala, hardware.ArchCA, hardware.ArchAP14, hardware.ArchAP50} {
		var r Figure8Row
		r.Arch = a
		if a == hardware.ArchSunder {
			r.ThroughputAP = sunder
			r.ThroughputRAD = sunder
		} else {
			r.ThroughputAP = hardware.Throughput(a, apOv)
			r.ThroughputRAD = hardware.Throughput(a, radOv)
		}
		r.SunderSpeedupAP = sunder / r.ThroughputAP
		r.SunderSpeedupRAD = sunder / r.ThroughputRAD
		rows = append(rows, r)
	}
	return rows
}

// FprintFigure8 renders the figure data.
func FprintFigure8(w io.Writer, rows []Figure8Row) {
	fprintf(w, "Figure 8: throughput of automata accelerators (Gbit/s)\n")
	fprintf(w, "%-12s %14s %14s %12s %12s\n", "Architecture",
		"AP-reporting", "RAD-reporting", "Sunder/AP", "Sunder/RAD")
	for _, r := range rows {
		fprintf(w, "%-12s %11.2f    %11.2f    %9.1fx %11.1fx\n",
			r.Arch, r.ThroughputAP, r.ThroughputRAD, r.SunderSpeedupAP, r.SunderSpeedupRAD)
	}
}

// Figure9Row is one stacked bar of Figure 9.
type Figure9Row struct {
	Breakdown hardware.AreaBreakdown
	VsSunder  float64
}

// Figure9 computes the 32K-STE area comparison.
func Figure9() []Figure9Row {
	const states = 32 * 1024
	sunder := hardware.AreaFor(hardware.ArchSunder, states).Total()
	var rows []Figure9Row
	for _, a := range []hardware.Arch{hardware.ArchSunder, hardware.ArchCA, hardware.ArchImpala, hardware.ArchAP14} {
		b := hardware.AreaFor(a, states)
		rows = append(rows, Figure9Row{Breakdown: b, VsSunder: b.Total() / sunder})
	}
	return rows
}

// FprintFigure9 renders the figure data.
func FprintFigure9(w io.Writer, rows []Figure9Row) {
	fprintf(w, "Figure 9: area for 32K STEs (mm^2)\n")
	fprintf(w, "%-12s %10s %12s %10s %10s %10s\n", "Architecture",
		"Match", "Interconnect", "Reporting", "Total", "vs Sunder")
	for _, r := range rows {
		b := r.Breakdown
		fprintf(w, "%-12s %10.3f %12.3f %10.3f %10.3f %9.2fx\n",
			b.Arch, b.Match/1e6, b.Interconnect/1e6, b.Reporting/1e6, b.Total()/1e6, r.VsSunder)
	}
}

// Figure10Point is one x-position of Figure 10: the slowdown at a given
// report-cycle percentage under three reporting strategies.
type Figure10Point struct {
	ReportCyclePct    int
	NoSummarization   float64 // w/o FIFO, flush on full
	WithSummarization float64 // summarize in 16-row batches on full
	WithFIFO          float64 // FIFO drain
}

// Figure10 sweeps the input's report-cycle percentage from 1% to 100% on a
// machine whose single subarray hosts 12 reporting states, as in the
// paper's sensitivity analysis (Section 7.5).
func Figure10(inputLen int) ([]Figure10Point, error) {
	// 12 independent single-state report patterns, all matching the
	// trigger byte 'R' — every trigger cycle generates a 12-report burst
	// in one subarray.
	ua := automata.NewUnitAutomaton(4, 4, 2)
	for i := 0; i < 12; i++ {
		ua.AddState(automata.UnitState{
			Match: [automata.MaxRate]automata.UnitSet{
				1 << ('R' >> 4), 1 << ('R' & 0xf),
				automata.AllUnits(4), automata.AllUnits(4),
			},
			Start:   automata.StartAllInput,
			Reports: []automata.Report{{Offset: 1, Code: int32(i), Origin: int32(i)}},
		})
	}
	ua.Normalize()
	// The twelve states differ only in report code, so minimization is
	// deliberately skipped: the sweep models 12 occupied report columns.

	var points []Figure10Point
	for _, pct := range []int{1, 2, 5, 10, 20, 50, 75, 100} {
		input := make([]byte, inputLen)
		for i := range input {
			input[i] = 'x'
		}
		// Deterministic spread: a cycle covers 2 bytes at rate 4; make
		// pct% of cycles carry the trigger at their first byte.
		cycles := inputLen / 2
		hits := cycles * pct / 100
		if hits < 1 {
			hits = 1
		}
		stride := cycles / hits
		for k := 0; k < hits; k++ {
			pos := k * stride * 2
			if pos < inputLen {
				input[pos] = 'R'
			}
		}
		// One device run feeds the three reporting strategies.
		cfg := core.DefaultConfig(4)
		place, err := mapping.Place(ua, cfg.ReportColumns)
		if err != nil {
			return nil, err
		}
		m, err := core.Configure(ua, place, cfg)
		if err != nil {
			return nil, err
		}
		flush, summarize, fifo := reportModel(m, false, false, nil), reportModel(m, false, true, nil), reportModel(m, true, false, nil)
		res := runReporting(m, funcsim.BytesToUnits(input, 4), flush, summarize, fifo)
		pt := Figure10Point{
			ReportCyclePct:    pct,
			NoSummarization:   flush.Result().Overhead(res.KernelCycles),
			WithSummarization: summarize.Result().Overhead(res.KernelCycles),
			WithFIFO:          fifo.Result().Overhead(res.KernelCycles),
		}
		points = append(points, pt)
	}
	return points, nil
}

// FprintFigure10 renders the sweep.
func FprintFigure10(w io.Writer, pts []Figure10Point, inputLen int) {
	fprintf(w, "Figure 10: slowdown vs reporting-cycle percentage (12 report states/subarray, input=%d bytes)\n", inputLen)
	fprintf(w, "%8s %16s %18s %12s\n", "RC%", "no summarize", "with summarize", "with FIFO")
	for _, p := range pts {
		fprintf(w, "%7d%% %15.3fx %17.3fx %11.3fx\n",
			p.ReportCyclePct, p.NoSummarization, p.WithSummarization, p.WithFIFO)
	}
}
