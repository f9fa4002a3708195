package exp

import (
	"testing"

	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// TestMachineMatchesFuncsimOnBenchmarks is the end-to-end integration
// check on real workloads: for a spread of benchmark families and rates,
// the architectural simulator must produce exactly the functional
// simulator's reports, and both must match the original byte automaton.
func TestMachineMatchesFuncsimOnBenchmarks(t *testing.T) {
	cases := []struct {
		name string
		rate int
	}{
		{"Snort", 4},
		{"Brill", 2},
		{"SPM", 4},
		{"Hamming", 2},
		{"Levenshtein", 1},
		{"Protomata", 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := workload.MustGet(c.name, 0.005, 3000)
			ua, err := transform.ToRate(w.Automaton, c.rate)
			if err != nil {
				t.Fatal(err)
			}
			// Transformation equivalence against the byte automaton.
			if err := transform.EquivalentOnInput(w.Automaton, ua, w.Input); err != nil {
				t.Fatalf("transform: %v", err)
			}
			// Machine equivalence against the unit simulator.
			m, err := buildMachine(w, c.rate, core.DefaultConfig(c.rate), nil)
			if err != nil {
				t.Fatal(err)
			}
			units := funcsim.BytesToUnits(w.Input, 4)
			want := funcsim.NewUnitSimulator(ua).Run(units, funcsim.Options{RecordEvents: true})
			got := m.Run(units, core.RunOptions{RecordEvents: true})
			if want.Reports != got.Reports || want.ReportCycles != got.ReportCycles {
				t.Fatalf("machine %d reports/%d cycles, funcsim %d/%d",
					got.Reports, got.ReportCycles, want.Reports, want.ReportCycles)
			}
			type key struct {
				unit   int64
				origin int32
			}
			count := map[key]int{}
			for _, ev := range want.Events {
				count[key{ev.Unit, ev.Origin}]++
			}
			for _, ev := range got.Events {
				count[key{ev.Unit, ev.Origin}]--
			}
			for k, v := range count {
				if v != 0 {
					t.Fatalf("event multiset mismatch at %+v (delta %d)", k, v)
				}
			}
		})
	}
}
