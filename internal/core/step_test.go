package core

import (
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// workloadMachine configures the named generated workload (rule scale
// 0.02, as the repository benchmark builds it) under cfg, with the report
// budget the placement needs, and returns its input as units.
func workloadMachine(tb testing.TB, name string, cfg Config, inputLen int) (*Machine, []funcsim.Unit) {
	tb.Helper()
	w, err := workload.Get(name, 0.02, inputLen)
	if err != nil {
		tb.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, cfg.Rate)
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.ReportColumns, err = mapping.AutoReportColumns(ua, cfg.ReportColumns); err != nil {
		tb.Fatal(err)
	}
	place, err := mapping.Place(ua, cfg.ReportColumns)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Configure(ua, place, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m, funcsim.PadUnits(funcsim.BytesToUnits(w.Input, 4), cfg.Rate)
}

// BenchmarkMachineStep is the named benchmark of the device core's hot
// loop, one sub-benchmark per workload: rate 4 with the FIFO drain, as the
// nfa_dense workload of the repository benchmark runs Snort, and Snort at
// rate 1, where the cycles alternate between injecting the unanchored
// starts and not. ns/cycle is the figure of merit and must not regress;
// allocs/op must stay 0.
func BenchmarkMachineStep(b *testing.B) {
	for _, bc := range []struct {
		name     string
		workload string
		rate     int
	}{
		{"Snort", "Snort", 4}, {"SPM", "SPM", 4}, {"Hamming", "Hamming", 4},
		{"EntityResolution", "EntityResolution", 4}, {"Snort/rate1", "Snort", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(bc.rate)
			cfg.FIFO = true
			m, units := workloadMachine(b, bc.workload, cfg, 64<<10)
			var ids []automata.StateID
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i++ {
				if off == len(units) {
					off = 0
					m.Reset()
				}
				ids = m.Step(units[off:off+cfg.Rate], ids[:0])
				off += cfg.Rate
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}

// TestStepZeroAllocs pins the hot loop at zero allocations per cycle, with
// reports (Snort reports nearly every cycle) and without.
func TestStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := DefaultConfig(4)
	cfg.FIFO = true
	m, units := workloadMachine(t, "Snort", cfg, 8<<10)
	quiet := make([]funcsim.Unit, len(units)) // nibble 0 only: no rule matches
	for name, in := range map[string][]funcsim.Unit{"reports": units, "no reports": quiet} {
		m.Reset()
		ids := make([]automata.StateID, 0, 64)
		off, reports := 0, 0
		step := func() {
			ids = m.Step(in[off:off+cfg.Rate], ids[:0])
			reports += len(ids)
			if off += cfg.Rate; off == len(in) {
				off = 0
			}
		}
		for i := 0; i < 64; i++ {
			step() // steady state: past start-of-data, scratch grown
		}
		if got := testing.AllocsPerRun(2000, step); got != 0 {
			t.Errorf("%s: %.2f allocs per Step, want 0", name, got)
		}
		if (reports > 0) != (name == "reports") {
			t.Errorf("%s: %d reporting states over the run", name, reports)
		}
	}
}
