package exp

import (
	"io"

	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/hardware"
	"sunder/internal/workload"
)

// PowerRow is one row of the power/energy extension study: per-PU dynamic
// power and energy per input byte for each architecture, driven by the
// benchmark's measured report-cycle fraction. This experiment extends the
// paper (which reports Table 2's power inputs but no power results) using
// only published constants; see internal/hardware/power.go for the model.
type PowerRow struct {
	Name            string
	ReportCycleFrac float64
	// Per architecture: total per-PU mW and pJ/byte.
	SunderMW, CAMW, ImpalaMW, APMW float64
	SunderPJ, CAPJ, ImpalaPJ, APPJ float64
	// MeasuredSunderPJ is the architectural simulator's measured energy
	// per byte per PU, from its actual access counts.
	MeasuredSunderPJ float64
}

// PowerStudy measures report-cycle fractions and evaluates the power model.
// The MeasuredSunderPJ column comes from the architectural simulator's own
// access counters (match reads, crossbar row activations, report writes,
// exported bits) rather than the constant-activity model.
func PowerStudy(opts Options, names []string) ([]PowerRow, error) {
	var rows []PowerRow
	for _, name := range names {
		w, err := workload.Get(name, opts.Scale, opts.InputLen)
		if err != nil {
			return nil, err
		}
		res := funcsim.NewByteSimulator(w.Automaton).Run(w.Input, funcsim.Options{})
		rc := res.ReportCycleFraction()
		row := PowerRow{
			Name:            name,
			ReportCycleFrac: rc,
			SunderMW:        hardware.PowerFor(hardware.ArchSunder, rc).TotalMW(),
			CAMW:            hardware.PowerFor(hardware.ArchCA, rc).TotalMW(),
			ImpalaMW:        hardware.PowerFor(hardware.ArchImpala, rc).TotalMW(),
			APMW:            hardware.PowerFor(hardware.ArchAP14, rc).TotalMW(),
			SunderPJ:        hardware.EnergyPerByte(hardware.ArchSunder, rc),
			CAPJ:            hardware.EnergyPerByte(hardware.ArchCA, rc),
			ImpalaPJ:        hardware.EnergyPerByte(hardware.ArchImpala, rc),
			APPJ:            hardware.EnergyPerByte(hardware.ArchAP14, rc),
		}
		if m, err := buildMachine(w, 4, core.DefaultConfig(4), opts.Telemetry); err == nil {
			fifo := reportModel(m, true, false, opts.Telemetry)
			res := runReporting(m, funcsim.BytesToUnits(w.Input, 4), fifo)
			row.MeasuredSunderPJ = fifo.Energy(m.Energy()).PerByte(res.KernelCycles, 4) / float64(m.NumPUs())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintPowerStudy renders the study.
func FprintPowerStudy(w io.Writer, rows []PowerRow) {
	fprintf(w, "Extension: per-PU dynamic power (mW) and energy per byte (pJ/B)\n")
	fprintf(w, "%-18s %6s | %7s %7s %7s %7s | %7s %7s %7s %7s | %8s\n", "Benchmark", "RC%",
		"Sun mW", "CA mW", "Imp mW", "AP mW", "Sun pJ", "CA pJ", "Imp pJ", "AP pJ", "meas pJ")
	for _, r := range rows {
		fprintf(w, "%-18s %5.1f%% | %7.2f %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f %7.2f | %8.2f\n",
			r.Name, 100*r.ReportCycleFrac,
			r.SunderMW, r.CAMW, r.ImpalaMW, r.APMW,
			r.SunderPJ, r.CAPJ, r.ImpalaPJ, r.APPJ, r.MeasuredSunderPJ)
	}
}
