package mapping

import (
	"fmt"
	"strings"
	"testing"

	"sunder/internal/automata"
)

// manyChains builds n independent chains of length l with one report state
// each.
func manyChains(n, l int) *automata.UnitAutomaton {
	ua := automata.NewUnitAutomaton(4, 1, 2)
	for i := 0; i < n; i++ {
		var prev automata.StateID = -1
		for k := 0; k < l; k++ {
			s := automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{1 << uint((i+k)%16)}}
			if k == 0 {
				s.Start = automata.StartAllInput
			}
			if k == l-1 {
				s.Reports = []automata.Report{{Offset: 0, Code: int32(i), Origin: int32(i)}}
			}
			id := ua.AddState(s)
			if prev >= 0 {
				ua.States[prev].Succ = []automata.StateID{id}
			}
			prev = id
		}
	}
	ua.Normalize()
	return ua
}

func TestAutoReportColumnsPrefersDefault(t *testing.T) {
	ua := manyChains(5, 8)
	m, err := AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	if m != 12 {
		t.Errorf("m = %d, want preferred 12", m)
	}
}

func TestAutoReportColumnsRaises(t *testing.T) {
	// One component with many report states: hub fanning to 60 reports
	// needs m ≥ 15.
	ua := automata.NewUnitAutomaton(4, 1, 2)
	hub := ua.AddState(automata.UnitState{
		Match: [automata.MaxRate]automata.UnitSet{1},
		Start: automata.StartAllInput,
	})
	for i := 0; i < 60; i++ {
		rep := ua.AddState(automata.UnitState{
			Match:   [automata.MaxRate]automata.UnitSet{automata.UnitSet(1 << uint(i%16))},
			Reports: []automata.Report{{Offset: 0, Code: int32(i), Origin: int32(i)}},
		})
		ua.States[hub].Succ = append(ua.States[hub].Succ, rep)
	}
	ua.Normalize()
	m, err := AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	if m != 15 {
		t.Errorf("m = %d, want 15 (= ceil(60/4))", m)
	}
	if _, err := Place(ua, m); err != nil {
		t.Errorf("Place with auto m failed: %v", err)
	}
}

func TestAutoReportColumnsLowers(t *testing.T) {
	// A plain-heavy component: 990 plain states + 20 reports force m ≤
	// 256 - ceil(990/4) = 8.
	ua := automata.NewUnitAutomaton(4, 1, 2)
	var prev automata.StateID = -1
	for k := 0; k < 1010; k++ {
		s := automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{1 << uint(k%16)}}
		if k == 0 {
			s.Start = automata.StartAllInput
		}
		if k%50 == 49 { // 20 report states spread along the chain
			s.Reports = []automata.Report{{Offset: 0, Code: int32(k), Origin: int32(k)}}
		}
		id := ua.AddState(s)
		if prev >= 0 {
			ua.States[prev].Succ = []automata.StateID{id}
		}
		prev = id
	}
	ua.Normalize()
	m, err := AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	if m > 8 {
		t.Errorf("m = %d, want <= 8", m)
	}
	if _, err := Place(ua, m); err != nil {
		t.Errorf("Place with auto m failed: %v", err)
	}
}

func TestAutoReportColumnsInfeasible(t *testing.T) {
	// A component no cluster can hold is reported as such, in Place's
	// words, not as a negative budget bound ("need >= 1, <= -1").
	for _, n := range []int{StatesPerCluster + 5, 500 * StatesPerCluster} {
		ua := manyChains(1, n)
		_, err := AutoReportColumns(ua, 12)
		if err == nil {
			t.Fatalf("%d-state component accepted", n)
		}
		_, placeErr := Place(ua, 12)
		if placeErr == nil || err.Error() != placeErr.Error() {
			t.Errorf("AutoReportColumns: %v\nPlace:             %v", err, placeErr)
		}
		if want := fmt.Sprintf("component with %d states exceeds cluster capacity %d", n, StatesPerCluster); !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "-") {
			t.Errorf("error %q, want it to contain %q and no negative number", err, want)
		}
	}
	// Bounds that genuinely cross keep the budget message: 600 report
	// states fit a cluster but need 150 columns per PU, over the 128 cap.
	_, err := AutoReportColumns(chainUA(600, 1), 12)
	if err == nil || !strings.Contains(err.Error(), "need >= 150, <= 128") {
		t.Errorf("crossing bounds: %v", err)
	}
}

func TestClusterOf(t *testing.T) {
	if ClusterOf(0) != 0 || ClusterOf(3) != 0 || ClusterOf(4) != 1 || ClusterOf(9) != 2 {
		t.Error("ClusterOf wrong")
	}
}
