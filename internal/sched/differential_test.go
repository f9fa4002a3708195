package sched

import (
	"testing"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// buildTestMachine compiles a workload's byte automaton to the rate and
// configures a machine, mirroring the facade pipeline.
func buildTestMachine(t testing.TB, w *workload.Workload, rate int) (*core.Machine, *automata.UnitAutomaton) {
	t.Helper()
	ua, err := transform.ToRate(w.Automaton, rate)
	if err != nil {
		t.Fatalf("%s: transform: %v", w.Spec.Name, err)
	}
	cfg := core.DefaultConfig(rate)
	cfg.FIFO = true
	budget, err := mapping.AutoReportColumns(ua, cfg.ReportColumns)
	if err != nil {
		t.Fatalf("%s: %v", w.Spec.Name, err)
	}
	cfg.ReportColumns = budget
	place, err := mapping.Place(ua, cfg.ReportColumns)
	if err != nil {
		t.Fatalf("%s: place: %v", w.Spec.Name, err)
	}
	m, err := core.Configure(ua, place, cfg)
	if err != nil {
		t.Fatalf("%s: configure: %v", w.Spec.Name, err)
	}
	return m, ua
}

func diffEvents(t *testing.T, label string, got, want []funcsim.ReportEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
			return
		}
	}
}

// TestParallelMatchesSequentialAllBenchmarks is the acceptance battery:
// for every benchmark in internal/workload and workers in {1,2,4,8}, a
// parallel run's reports are exactly equal to a sequential run's.
func TestParallelMatchesSequentialAllBenchmarks(t *testing.T) {
	workers := []int{1, 2, 4, 8}
	scale, inputLen := 0.02, 4000
	if testing.Short() {
		workers = []int{2, 8}
		inputLen = 2000
	}
	for _, spec := range workload.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w := workload.MustGet(spec.Name, scale, inputLen)
			m, ua := buildTestMachine(t, w, 4)
			units := funcsim.BytesToUnits(w.Input, 4)
			ref := m.Clone().Run(units, core.RunOptions{RecordEvents: true})
			for _, wk := range workers {
				rr := ParallelRun(m, ua, units, RunConfig{
					Workers:      wk,
					RecordEvents: true,
					// Small floor so these reduced-scale inputs do shard.
					MinShardCycles: 64,
				})
				label := spec.Name
				if rr.Reports != ref.Reports {
					t.Errorf("%s workers=%d: Reports %d, want %d", label, wk, rr.Reports, ref.Reports)
				}
				if rr.ReportCycles != ref.ReportCycles {
					t.Errorf("%s workers=%d: ReportCycles %d, want %d", label, wk, rr.ReportCycles, ref.ReportCycles)
				}
				if rr.MaxReportsPerCycle != ref.MaxReportsPerCycle {
					t.Errorf("%s workers=%d: MaxReportsPerCycle %d, want %d",
						label, wk, rr.MaxReportsPerCycle, ref.MaxReportsPerCycle)
				}
				if rr.KernelCycles != ref.KernelCycles {
					t.Errorf("%s workers=%d: KernelCycles %d, want %d", label, wk, rr.KernelCycles, ref.KernelCycles)
				}
				diffEvents(t, label, rr.Events, ref.Events)
				if t.Failed() {
					t.Fatalf("%s workers=%d diverged (sharded=%v overlap=%d)", label, wk, rr.Sharded, rr.OverlapCycles)
				}
			}
		})
	}
}

// TestParallelAllRates covers the boundary-alignment logic at every
// processing rate (rate 1 needs 2-cycle alignment: a byte spans 2 cycles).
func TestParallelAllRates(t *testing.T) {
	for _, rate := range []int{1, 2, 4} {
		for _, name := range []string{"ExactMatch", "Hamming"} {
			w := workload.MustGet(name, 0.02, 2000)
			m, ua := buildTestMachine(t, w, rate)
			units := funcsim.BytesToUnits(w.Input, 4)
			ref := m.Clone().Run(units, core.RunOptions{RecordEvents: true})
			rr := ParallelRun(m, ua, units, RunConfig{Workers: 4, RecordEvents: true, MinShardCycles: 64})
			if rr.Reports != ref.Reports || rr.ReportCycles != ref.ReportCycles {
				t.Errorf("%s rate=%d: reports %d/%d, want %d/%d",
					name, rate, rr.Reports, rr.ReportCycles, ref.Reports, ref.ReportCycles)
			}
			diffEvents(t, name, rr.Events, ref.Events)
		}
	}
}

// TestDependenceCycles pins the two regimes: edit-distance meshes are
// acyclic (bounded window, shardable), dotstar rules self-loop (unbounded,
// sequential fallback).
func TestDependenceCycles(t *testing.T) {
	mesh := workload.MustGet("Hamming", 0.02, 1000)
	_, ua := buildTestMachine(t, mesh, 4)
	d, bounded := DependenceCycles(ua)
	if !bounded {
		t.Error("Hamming mesh: dependence unbounded, want bounded (acyclic lattice)")
	}
	if d <= 0 {
		t.Errorf("Hamming mesh: depth %d, want > 0", d)
	}

	dot := workload.MustGet("Dotstar03", 0.02, 1000)
	_, ua = buildTestMachine(t, dot, 4)
	if _, bounded := DependenceCycles(ua); bounded {
		t.Error("Dotstar03: dependence bounded, want unbounded (`.*` self-loops)")
	}

	// Unbounded automata still produce correct (sequential-fallback) output.
	m, ua := buildTestMachine(t, dot, 4)
	units := funcsim.BytesToUnits(dot.Input, 4)
	ref := m.Clone().Run(units, core.RunOptions{RecordEvents: true})
	rr := ParallelRun(m, ua, units, RunConfig{Workers: 8, RecordEvents: true, MinShardCycles: 64})
	if rr.Sharded {
		t.Error("Dotstar03: run sharded despite unbounded dependence window")
	}
	if rr.Reports != ref.Reports {
		t.Errorf("Dotstar03 fallback: Reports %d, want %d", rr.Reports, ref.Reports)
	}
	diffEvents(t, "Dotstar03", rr.Events, ref.Events)
}
