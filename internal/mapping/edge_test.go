package mapping

import (
	"testing"

	"sunder/internal/automata"
)

// chainUA builds a single-component chain of n nibble states where every
// reportEvery-th state reports (0 = only the last).
func chainUA(n int, reportEvery int) *automata.UnitAutomaton {
	a := automata.NewUnitAutomaton(4, 1, 2)
	a.States = make([]automata.UnitState, n)
	for i := range a.States {
		a.States[i].Match = [4]automata.UnitSet{automata.AllUnits(4)}
		if i == 0 {
			a.States[i].Start = automata.StartOfData
		}
		if i < n-1 {
			a.States[i].Succ = []automata.StateID{automata.StateID(i + 1)}
		}
		report := i == n-1
		if reportEvery > 0 && (i+1)%reportEvery == 0 {
			report = true
		}
		if report {
			a.States[i].Reports = []automata.Report{{Offset: 0, Code: 1, Origin: int32(i)}}
		}
	}
	a.Normalize()
	return a
}

// TestPlacePlainOverCapacity exercises the subarray over-capacity path a
// component can hit without exceeding the cluster's raw state count: 1000
// plain states fit 1024 cluster slots, but with m=12 only 4×244=976 plain
// columns exist, so placement must fail rather than spill the report
// region.
func TestPlacePlainOverCapacity(t *testing.T) {
	ua := chainUA(1000, 0)
	if _, err := Place(ua, 12); err == nil {
		t.Fatal("1000 plain states placed into 976 plain columns")
	}
	// The adaptive budget shrinks m to make the same component fit.
	m, err := AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(ua, m); err != nil {
		t.Fatalf("placement failed at the adaptive budget m=%d: %v", m, err)
	}
}

// TestPlaceReportOverCapacity is the dual: more report states than the
// cluster's report region can hold at any feasible budget.
func TestPlaceReportOverCapacity(t *testing.T) {
	// 600 report states in one component need 150 columns per PU, beyond
	// the StatesPerPU/2 cap AutoReportColumns enforces.
	ua := chainUA(600, 1)
	if _, err := AutoReportColumns(ua, 12); err == nil {
		t.Fatal("600-report component reported feasible")
	}
	if _, err := Place(ua, StatesPerPU/2); err == nil {
		t.Fatal("600-report component placed at the maximum budget")
	}
}

// TestPlaceZeroStates: an empty automaton is a degenerate but legal input
// (pruning can empty a machine whose patterns never match); placement must
// produce a consistent one-PU layout, not panic or divide by zero.
func TestPlaceZeroStates(t *testing.T) {
	ua := automata.NewUnitAutomaton(4, 1, 2)
	m, err := AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	if m != 12 {
		t.Fatalf("empty automaton moved the preferred budget: m=%d", m)
	}
	p, err := Place(ua, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPUs != 1 || len(p.Of) != 0 {
		t.Fatalf("got %d PUs, %d locations; want 1 empty PU", p.NumPUs, len(p.Of))
	}
	for _, col := range p.StateAt[0] {
		if col != -1 {
			t.Fatal("empty placement has an occupied column")
		}
	}
	st := p.ComputeStats(ua)
	if st.UsedColumns != 0 || st.NumClusters != 1 {
		t.Fatalf("stats %+v, want 0 used columns in 1 cluster", st)
	}
}
