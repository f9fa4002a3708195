package faults

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// build compiles patterns to a configured machine, mirroring the core test
// helper.
func build(t *testing.T, patterns []regex.Pattern, cfg core.Config) (*core.Machine, *automata.UnitAutomaton, *mapping.Placement) {
	t.Helper()
	a, err := regex.CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transform.ToRate(a, cfg.Rate)
	if err != nil {
		t.Fatal(err)
	}
	place, err := mapping.Place(ua, cfg.ReportColumns)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Configure(ua, place, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ua, place
}

// repRec is one committed report cycle, states sorted.
type repRec struct {
	cycle  int64
	states []automata.StateID
}

func record(dst *[]repRec) func(int64, []automata.StateID) {
	return func(cycle int64, states []automata.StateID) {
		s := append([]automata.StateID(nil), states...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		*dst = append(*dst, repRec{cycle: cycle, states: s})
	}
}

// reference runs the functional simulator over the same (guard-padded)
// units — the fault-free ground truth a recovered run must reproduce.
func reference(ua *automata.UnitAutomaton, units []funcsim.Unit) []repRec {
	var out []repRec
	funcsim.NewUnitSimulator(ua).Run(units, funcsim.Options{OnReportCycle: record(&out)})
	return out
}

func sameReports(t *testing.T, got, want []repRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("report cycles: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].cycle != want[i].cycle || len(got[i].states) != len(want[i].states) {
			t.Fatalf("report %d: got cycle %d states %v, want cycle %d states %v",
				i, got[i].cycle, got[i].states, want[i].cycle, want[i].states)
		}
		for j := range got[i].states {
			if got[i].states[j] != want[i].states[j] {
				t.Fatalf("report %d state %d: got %v, want %v", i, j, got[i].states, want[i].states)
			}
		}
	}
}

// run executes one guarded run and returns the stats and committed reports.
func run(t *testing.T, patterns []regex.Pattern, cfg core.Config, pol Policy, inj *Injector, input []byte) (Stats, []repRec, []repRec, error) {
	t.Helper()
	m, ua, place := build(t, patterns, cfg)
	g, err := NewGuard(m, ua, place, pol, inj)
	if err != nil {
		t.Fatal(err)
	}
	var got []repRec
	g.OnReportCycle(record(&got))
	units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), cfg.Rate)
	stats, err := g.Run(units)
	return stats, got, reference(ua, units), err
}

func TestPolicyValidate(t *testing.T) {
	for _, p := range []Policy{
		{MatchFlipRate: -0.1},
		{ReportFlipRate: 1.5},
		{DrainDropRate: 2},
		{StuckXbarFaults: -1},
	} {
		if p.Validate() == nil {
			t.Errorf("policy %+v: expected validation error", p)
		}
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
}

// TestGuardFaultFree is the baseline: with no faults the guard is a pure
// pass-through — identical reports, no detections, slowdown 1.0.
func TestGuardFaultFree(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab+c`, Code: 1}, {Expr: `cab`, Code: 2}}
	input := []byte(strings.Repeat("xabbbcaby", 40))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	stats, got, want, err := run(t, pats, core.DefaultConfig(2), pol, nil, input)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, want)
	if stats.Detected() != 0 || stats.Injected.Total() != 0 {
		t.Fatalf("fault-free run: detected %d, injected %d", stats.Detected(), stats.Injected.Total())
	}
	if s := stats.Slowdown(); s != 1 {
		t.Fatalf("fault-free slowdown %v, want 1", s)
	}
}

// TestMatchFlipCoverage injects single-bit match-row flips one at a time
// and requires every one detected by scrubbing and fully recovered.
func TestMatchFlipCoverage(t *testing.T) {
	pats := []regex.Pattern{{Expr: `abc`, Code: 1}}
	input := []byte(strings.Repeat("zabcz", 60))
	for _, flip := range []struct {
		cycle    int64
		row, col int
	}{
		{10, 0, 3}, // a bit behaviourally irrelevant to the placed states
		{100, 15, 0},
		{250, 5, 255},
	} {
		pol := DefaultPolicy()
		pol.CheckpointInterval = 64
		inj, err := NewInjector(pol)
		if err != nil {
			t.Fatal(err)
		}
		inj.ScheduleMatchFlip(flip.cycle, 0, flip.row, flip.col)
		stats, got, want, err := run(t, pats, core.DefaultConfig(1), pol, inj, input)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, got, want)
		if stats.Injected.MatchFlips != 1 {
			t.Fatalf("flip %+v: injected %d match flips, want 1", flip, stats.Injected.MatchFlips)
		}
		if stats.DetectedScrub != 1 {
			t.Fatalf("flip %+v: scrub detected %d, want 1 (100%% coverage)", flip, stats.DetectedScrub)
		}
		if stats.Recoveries != 1 {
			t.Fatalf("flip %+v: %d recoveries, want 1", flip, stats.Recoveries)
		}
		if stats.BackoffCycles != int64(pol.BackoffCycles) {
			t.Fatalf("flip %+v: %d backoff cycles, want one first-retry penalty (%d)", flip, stats.BackoffCycles, pol.BackoffCycles)
		}
		if s := stats.Slowdown(); s <= 1 {
			t.Fatalf("flip %+v: slowdown %v, want > 1", flip, s)
		}
	}
}

// TestReportFlipCoverage corrupts one bit of a resident report entry and
// requires parity to detect it and recovery to restore the exact output.
func TestReportFlipCoverage(t *testing.T) {
	pats := []regex.Pattern{{Expr: `a`, Code: 1}}
	input := []byte(strings.Repeat("a", 150))
	for _, cycle := range []int64{5, 33, 120} {
		pol := DefaultPolicy()
		pol.CheckpointInterval = 64
		inj, err := NewInjector(pol)
		if err != nil {
			t.Fatal(err)
		}
		inj.ScheduleReportFlip(cycle)
		stats, got, want, err := run(t, pats, core.DefaultConfig(1), pol, inj, input)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, got, want)
		if stats.Injected.ReportFlips != 1 {
			t.Fatalf("cycle %d: injected %d report flips, want 1", cycle, stats.Injected.ReportFlips)
		}
		if stats.DetectedParity != 1 {
			t.Fatalf("cycle %d: parity detected %d, want 1 (100%% coverage)", cycle, stats.DetectedParity)
		}
		if stats.Recoveries != 1 {
			t.Fatalf("cycle %d: %d recoveries, want 1", cycle, stats.Recoveries)
		}
	}
}

// TestReportFlipDuringFlushWindow shrinks the report region so the flush
// fires between the corruption and the window boundary: the pre-flush
// parity sweep must catch the entry before it leaves the region.
func TestReportFlipDuringFlushWindow(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.MetadataBits = 124 // entry 136 bits → 1 entry/row → capacity 240
	pats := []regex.Pattern{{Expr: `a`, Code: 1}}
	// Reports every cycle: region fills at cycle ~240, inside the first
	// 256-cycle window; the flip at cycle 200 is resident until the flush.
	input := []byte(strings.Repeat("a", 160))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 256
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleReportFlip(200)
	stats, got, want, err := run(t, pats, cfg, pol, inj, input)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, want)
	if stats.DetectedParity != 1 {
		t.Fatalf("flush-window flip: parity detected %d, want 1", stats.DetectedParity)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("flush-window flip: %d recoveries, want 1", stats.Recoveries)
	}
}

// TestFaultInLastVector schedules the fault on the run's final cycle: the
// partial window executed at the end of Run must still detect and recover it.
func TestFaultInLastVector(t *testing.T) {
	pats := []regex.Pattern{{Expr: `abc`, Code: 1}}
	input := []byte(strings.Repeat("zabcz", 30)) // 150 bytes → 300 cycles at rate 1
	units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), 1)
	last := int64(len(units) - 1)
	pol := DefaultPolicy()
	pol.CheckpointInterval = 256 // final window is the partial one
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleMatchFlip(last, 0, 2, 7)
	stats, got, want, err := run(t, pats, core.DefaultConfig(1), pol, inj, input)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, want)
	if stats.DetectedScrub != 1 || stats.Recoveries != 1 {
		t.Fatalf("last-vector fault: scrub %d recoveries %d, want 1/1", stats.DetectedScrub, stats.Recoveries)
	}
}

// TestStuckXbarQuarantine plants a permanent crossbar defect: retries
// cannot outlast it, so the guard must quarantine the PU, remap its
// cluster onto spares, and still produce the fault-free output.
func TestStuckXbarQuarantine(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab`, Code: 1}}
	input := []byte(strings.Repeat("ab", 100))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 32
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	inj.PlantStuckXbar(0, 0, 1, true)
	m, ua, place := build(t, pats, core.DefaultConfig(1))
	if m.XbarBit(0, 0, 1) {
		t.Skip("defect site carries a real edge; pick another for this pattern set")
	}
	g, err := NewGuard(m, ua, place, pol, inj)
	if err != nil {
		t.Fatal(err)
	}
	var got []repRec
	g.OnReportCycle(record(&got))
	units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), 1)
	stats, err := g.Run(units)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, reference(ua, units))
	if stats.Quarantines != 1 || len(stats.QuarantinedPUs) != 1 || stats.QuarantinedPUs[0] != 0 {
		t.Fatalf("quarantines %d PUs %v, want one event on PU 0", stats.Quarantines, stats.QuarantinedPUs)
	}
	if g.Machine() == m {
		t.Fatal("quarantine must rebuild the machine")
	}
	if g.Placement().NumPUs <= place.NumPUs {
		t.Fatalf("placement did not grow onto spares: %d -> %d", place.NumPUs, g.Placement().NumPUs)
	}
	if !g.Injector().Quarantined(0) {
		t.Fatal("PU 0 not marked quarantined in the injector")
	}
}

// TestSpareExhaustion drives quarantine past its spare budget and requires
// a graceful error — no panic, sticky Err, no reports invented.
func TestSpareExhaustion(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab`, Code: 1}}
	input := []byte(strings.Repeat("ab", 200))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 32
	pol.SparePUs = 4 // budget for exactly one cluster quarantine
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	// One defect on the original cluster, one waiting on the spare cluster
	// the states will be relocated to.
	inj.PlantStuckXbar(0, 0, 1, true)
	inj.PlantStuckXbar(4, 0, 1, true)
	m, ua, place := build(t, pats, core.DefaultConfig(1))
	if m.XbarBit(0, 0, 1) {
		t.Skip("defect site carries a real edge; pick another for this pattern set")
	}
	g, err := NewGuard(m, ua, place, pol, inj)
	if err != nil {
		t.Fatal(err)
	}
	units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), 1)
	_, err = g.Run(units)
	if err == nil {
		t.Fatal("expected spare-exhaustion error")
	}
	if !strings.Contains(err.Error(), "spare") {
		t.Fatalf("unexpected error: %v", err)
	}
	if g.Err() == nil {
		t.Fatal("error must be sticky")
	}
	if _, err := g.Run(units); !errors.Is(err, g.Err()) {
		t.Fatalf("Run after failure returned %v, want the sticky error %v", err, g.Err())
	}
}

// TestDrainDropAudit loses FIFO drain rows in flight; the region audit
// must notice the write/consume imbalance and recovery must re-deliver.
func TestDrainDropAudit(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.FIFO = true
	pats := []regex.Pattern{{Expr: `a`, Code: 1}}
	input := []byte(strings.Repeat("a", 400))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	pol.DrainDropRate = 0.01
	pol.Seed = 7
	stats, got, want, err := run(t, pats, cfg, pol, nil, input)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, want)
	if stats.Injected.DrainDrops == 0 {
		t.Fatal("expected at least one injected drain drop (seed-dependent; adjust seed)")
	}
	if stats.DetectedAudit < stats.Injected.DrainDrops {
		t.Fatalf("audit detected %d of %d drops", stats.DetectedAudit, stats.Injected.DrainDrops)
	}
	if s := stats.Slowdown(); s <= 1 {
		t.Fatalf("slowdown %v, want > 1 after recoveries", s)
	}
}

// TestRandomSoup runs the full random fault mix end to end: whatever was
// injected, committed output must equal the fault-free reference.
func TestRandomSoup(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab+c`, Code: 1}, {Expr: `ca`, Code: 2}}
	input := []byte(strings.Repeat("xabbcay", 120))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	pol.MatchFlipRate = 0.01
	pol.ReportFlipRate = 0.01
	pol.Seed = 3
	stats, got, want, err := run(t, pats, core.DefaultConfig(2), pol, nil, input)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, want)
	if stats.Injected.Total() == 0 {
		t.Fatal("expected injections at these rates (seed-dependent; adjust seed)")
	}
	if stats.Detected() == 0 {
		t.Fatal("injected faults but detected none")
	}
}

// TestDeterminism: identical policies and inputs produce identical fault
// histories and stats.
func TestDeterminism(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab`, Code: 1}}
	input := []byte(strings.Repeat("zab", 150))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	pol.MatchFlipRate = 0.005
	pol.Seed = 11
	s1, g1, _, err1 := run(t, pats, core.DefaultConfig(1), pol, nil, input)
	s2, g2, _, err2 := run(t, pats, core.DefaultConfig(1), pol, nil, input)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.Injected != s2.Injected || s1.Detected() != s2.Detected() || s1.Recoveries != s2.Recoveries {
		t.Fatalf("non-deterministic: %+v vs %+v", s1, s2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("non-deterministic reports: %d vs %d", len(g1), len(g2))
	}
}

// TestGuardTelemetry checks the counters the recovery layer exports.
func TestGuardTelemetry(t *testing.T) {
	pats := []regex.Pattern{{Expr: `abc`, Code: 1}}
	input := []byte(strings.Repeat("zabcz", 60))
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleMatchFlip(10, 0, 0, 3)
	m, ua, place := build(t, pats, core.DefaultConfig(1))
	g, err := NewGuard(m, ua, place, pol, inj)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	g.AttachTelemetry(col)
	units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), 1)
	if _, err := g.Run(units); err != nil {
		t.Fatal(err)
	}
	if n := col.Counter(MetricInjected).Load(); n != 1 {
		t.Errorf("%s = %d, want 1", MetricInjected, n)
	}
	if n := col.Counter(MetricDetected).Load(); n != 1 {
		t.Errorf("%s = %d, want 1", MetricDetected, n)
	}
	if n := col.Counter(MetricRecoveries).Load(); n != 1 {
		t.Errorf("%s = %d, want 1", MetricRecoveries, n)
	}
	if n := col.Counter(MetricQuarantined).Load(); n != 0 {
		t.Errorf("%s = %d, want 0", MetricQuarantined, n)
	}
}
