package exp

import (
	"io"

	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/hardware"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// returns measured numbers so regressions in a design decision show up as
// changed output, and each has a bench_test.go entry.

// RateAblationRow quantifies the throughput-vs-density trade-off of the
// reconfigurable processing rate (Section 5.1.1) for one benchmark.
type RateAblationRow struct {
	Name string
	// Per rate index (1, 2, 4 nibbles):
	States     [3]int
	PUs        [3]int
	GbpsPerPU  [3]float64 // device throughput ÷ PUs: the density-adjusted figure of merit
	Throughput [3]float64 // Gbit/s at the Sunder operating frequency
}

// AblationRate measures the trade-off on a subset of benchmarks.
func AblationRate(opts Options, names []string) ([]RateAblationRow, error) {
	freq := hardware.PipelineFor(hardware.ArchSunder).OperatingFreqGHz()
	var rows []RateAblationRow
	for _, name := range names {
		w, err := workload.Get(name, opts.Scale, 64)
		if err != nil {
			return nil, err
		}
		row := RateAblationRow{Name: name}
		for i, rate := range table3Rates {
			m, err := buildMachine(w, rate, core.DefaultConfig(rate), opts.Telemetry)
			if err != nil {
				return nil, err
			}
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				return nil, err
			}
			row.States[i] = ua.NumStates()
			row.PUs[i] = m.NumPUs()
			row.Throughput[i] = freq * float64(4*rate)
			row.GbpsPerPU[i] = row.Throughput[i] / float64(m.NumPUs())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintAblationRate renders the trade-off.
func FprintAblationRate(w io.Writer, rows []RateAblationRow) {
	fprintf(w, "Ablation: processing rate vs density (Sunder @ %.1f GHz)\n",
		hardware.PipelineFor(hardware.ArchSunder).OperatingFreqGHz())
	fprintf(w, "%-18s | %19s | %13s | %22s\n", "Benchmark", "states (4/8/16-bit)", "PUs", "Gbps/PU")
	for _, r := range rows {
		fprintf(w, "%-18s | %5d %6d %6d | %3d %4d %4d | %6.2f %7.2f %7.2f\n",
			r.Name, r.States[0], r.States[1], r.States[2],
			r.PUs[0], r.PUs[1], r.PUs[2],
			r.GbpsPerPU[0], r.GbpsPerPU[1], r.GbpsPerPU[2])
	}
}

// ReportWidthAblation measures how the per-entry report width m trades
// region capacity against flush frequency on a dense workload.
type ReportWidthAblation struct {
	ReportColumns  int
	RegionCapacity int
	Flushes        int64
	Overhead       float64
}

// AblationReportWidth sweeps m on the Snort workload (reporting nearly
// every cycle, so the region-fill rate tracks capacity directly).
func AblationReportWidth(opts Options, widths []int) ([]ReportWidthAblation, error) {
	w, err := workload.Get("Snort", opts.Scale, opts.InputLen)
	if err != nil {
		return nil, err
	}
	units := funcsim.BytesToUnits(w.Input, 4)
	var rows []ReportWidthAblation
	for _, m := range widths {
		cfg := core.DefaultConfig(4)
		cfg.ReportColumns = m
		mach, err := buildMachine(w, 4, cfg, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		flush := reportModel(mach, false, false, opts.Telemetry)
		res := runReporting(mach, units, flush)
		rows = append(rows, ReportWidthAblation{
			ReportColumns:  mach.Config().ReportColumns,
			RegionCapacity: mach.Config().RegionCapacity(),
			Flushes:        flush.Result().Flushes,
			Overhead:       flush.Result().Overhead(res.KernelCycles),
		})
	}
	return rows, nil
}

// FprintAblationReportWidth renders the sweep.
func FprintAblationReportWidth(w io.Writer, rows []ReportWidthAblation) {
	fprintf(w, "Ablation: report width m vs region capacity and flushes (Snort, 16-bit)\n")
	fprintf(w, "%6s %10s %10s %10s\n", "m", "capacity", "flushes", "overhead")
	for _, r := range rows {
		fprintf(w, "%6d %10d %10d %9.3fx\n", r.ReportColumns, r.RegionCapacity, r.Flushes, r.Overhead)
	}
}

// CoverAblation compares the grouped-row product cover against the naive
// per-symbol cover in the nibble transformation.
type CoverAblation struct {
	Name          string
	ByteStates    int
	GroupedStates int
	NaiveStates   int
	Saving        float64 // naive/grouped
}

// AblationCover measures the cover choice across benchmarks. The raw
// (pre-minimization) counts are compared: the minimizer's union-merge pass
// can largely reconstruct the grouping afterwards, so the cover's value is
// in producing the compact form directly.
func AblationCover(opts Options, names []string) ([]CoverAblation, error) {
	var rows []CoverAblation
	for _, name := range names {
		w, err := workload.Get(name, opts.Scale, 64)
		if err != nil {
			return nil, err
		}
		grouped := transform.ToNibble(w.Automaton)
		naive := transform.ToNibbleNaive(w.Automaton)
		rows = append(rows, CoverAblation{
			Name:          name,
			ByteStates:    w.Automaton.NumStates(),
			GroupedStates: grouped.NumStates(),
			NaiveStates:   naive.NumStates(),
			Saving:        float64(naive.NumStates()) / float64(grouped.NumStates()),
		})
	}
	return rows, nil
}

// FprintAblationCover renders the comparison.
func FprintAblationCover(w io.Writer, rows []CoverAblation) {
	fprintf(w, "Ablation: grouped-row vs per-symbol product cover (1-nibble states)\n")
	fprintf(w, "%-18s %8s %9s %8s %8s\n", "Benchmark", "8-bit", "grouped", "naive", "saving")
	for _, r := range rows {
		fprintf(w, "%-18s %8d %9d %8d %7.2fx\n", r.Name, r.ByteStates, r.GroupedStates, r.NaiveStates, r.Saving)
	}
}
