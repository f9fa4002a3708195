// Package mapping places a transformed (nibble) automaton onto Sunder
// processing units: 256 states per PU, four PUs per cluster (1024 states)
// joined by global memory-mapped switches (Figure 4, Figure 7).
//
// Placement works on connected components: a component must fit within one
// cluster (the global switches only join the four PUs of a cluster), and
// reporting states must land in the last ReportColumns columns of their PU
// — the pre-defined reporting region of Figure 5 that makes single-cycle
// report detection possible.
package mapping

import (
	"fmt"
	"sort"

	"sunder/internal/automata"
)

// Geometry constants of the Sunder architecture.
const (
	// StatesPerPU is the column count of one state-matching subarray.
	StatesPerPU = 256
	// PUsPerCluster is the number of PUs joined by one set of global
	// switches.
	PUsPerCluster = 4
	// StatesPerCluster is the largest automaton component the
	// interconnect can host.
	StatesPerCluster = StatesPerPU * PUsPerCluster
)

// Loc is a state's physical location.
type Loc struct {
	// PU is the global processing-unit index.
	PU int
	// Col is the column within the PU's subarray (0..255).
	Col int
}

// Placement maps every automaton state to a location.
type Placement struct {
	// ReportColumns is the per-PU report-column budget m.
	ReportColumns int
	// NumPUs is the number of processing units used.
	NumPUs int
	// Of[s] is the location of state s.
	Of []Loc
	// StateAt inverts Of: StateAt[pu][col] is the state at a column, or
	// -1 when the column is unused.
	StateAt [][]int32
}

// ClusterOf returns the cluster index of a PU.
func ClusterOf(pu int) int { return pu / PUsPerCluster }

// AutoReportColumns returns a feasible per-PU report-column budget m for
// the automaton, as close to preferred as possible. Each connected
// component must fit one cluster, which bounds m from below (its report
// states need ⌈reports/4⌉ columns per PU) and from above (its plain states
// need the remaining columns). An error is returned when no m in
// [1, StatesPerPU/2] satisfies every component.
func AutoReportColumns(a *automata.UnitAutomaton, preferred int) (int, error) {
	mMin, mMax := 1, StatesPerPU/2
	for _, comp := range components(a) {
		if len(comp) > StatesPerCluster {
			// No budget helps and the bounds below would go negative;
			// fail with the words Place uses for the same component.
			return 0, fmt.Errorf("mapping: component with %d states exceeds cluster capacity %d",
				len(comp), StatesPerCluster)
		}
		reports := 0
		for _, s := range comp {
			if len(a.States[s].Reports) > 0 {
				reports++
			}
		}
		plains := len(comp) - reports
		lo := (reports + PUsPerCluster - 1) / PUsPerCluster
		hi := StatesPerPU - (plains+PUsPerCluster-1)/PUsPerCluster
		if lo > mMin {
			mMin = lo
		}
		if hi < mMax {
			mMax = hi
		}
	}
	if mMin > mMax {
		return 0, fmt.Errorf("mapping: no report-column budget fits every component (need >= %d, <= %d)", mMin, mMax)
	}
	m := preferred
	if m < mMin {
		m = mMin
	}
	if m > mMax {
		m = mMax
	}
	return m, nil
}

// Place assigns the states of a unit automaton to PUs. reportColumns is the
// per-PU budget of report states (the paper allocates 12 based on the 3.9%
// average report-state fraction). Components are packed first-fit in
// decreasing size; a component larger than a cluster or a PU with more
// report states than columns is an error.
func Place(a *automata.UnitAutomaton, reportColumns int) (*Placement, error) {
	if reportColumns < 1 || reportColumns > StatesPerPU {
		return nil, fmt.Errorf("mapping: report columns %d out of range [1,%d]", reportColumns, StatesPerPU)
	}
	comps := components(a)
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })

	p := &Placement{
		ReportColumns: reportColumns,
		Of:            make([]Loc, a.NumStates()),
	}
	// Open PUs track remaining plain and report column budgets.
	type puState struct {
		plainUsed  int // columns used from the front
		reportUsed int // columns used from the back
	}
	var pus []puState
	// A cluster is open while any of its PUs has room; components larger
	// than one PU get a fresh cluster.
	newPU := func() int {
		pus = append(pus, puState{})
		return len(pus) - 1
	}

	for _, comp := range comps {
		if len(comp) > StatesPerCluster {
			return nil, fmt.Errorf("mapping: component with %d states exceeds cluster capacity %d",
				len(comp), StatesPerCluster)
		}
		reports := 0
		for _, s := range comp {
			if len(a.States[s].Reports) > 0 {
				reports++
			}
		}
		if len(comp) <= StatesPerPU && reports <= reportColumns {
			// Small component: first PU with room for both budgets.
			target := -1
			for i := range pus {
				if pus[i].plainUsed+(len(comp)-reports) <= StatesPerPU-reportColumns &&
					pus[i].reportUsed+reports <= reportColumns {
					target = i
					break
				}
			}
			if target < 0 {
				target = newPU()
			}
			if err := placeInto(a, p, comp, target, &pus[target].plainUsed, &pus[target].reportUsed); err != nil {
				return nil, err
			}
			continue
		}
		// Large component: spread across a fresh cluster, PU by PU.
		if pad := len(pus) % PUsPerCluster; pad != 0 {
			for k := pad; k < PUsPerCluster; k++ {
				newPU()
			}
		}
		base := len(pus)
		for k := 0; k < PUsPerCluster; k++ {
			newPU()
		}
		// Split reporting and plain states separately so neither budget
		// is exhausted by an unlucky ordering.
		var reps, plains []automata.StateID
		for _, s := range comp {
			if len(a.States[s].Reports) > 0 {
				reps = append(reps, s)
			} else {
				plains = append(plains, s)
			}
		}
		if len(reps) > PUsPerCluster*reportColumns ||
			len(plains) > PUsPerCluster*(StatesPerPU-reportColumns) {
			return nil, fmt.Errorf("mapping: component with %d states (%d reporting) does not fit a cluster with %d report columns per PU",
				len(comp), reports, reportColumns)
		}
		ri, pi := 0, 0
		for k := 0; k < PUsPerCluster; k++ {
			pu := base + k
			var part []automata.StateID
			for c := 0; c < reportColumns && ri < len(reps); c++ {
				part = append(part, reps[ri])
				ri++
			}
			for c := 0; c < StatesPerPU-reportColumns && pi < len(plains); c++ {
				part = append(part, plains[pi])
				pi++
			}
			if err := placeInto(a, p, part, pu, &pus[pu].plainUsed, &pus[pu].reportUsed); err != nil {
				return nil, err
			}
		}
	}

	p.NumPUs = len(pus)
	if p.NumPUs == 0 {
		p.NumPUs = 1
	}
	p.StateAt = make([][]int32, p.NumPUs)
	for pu := range p.StateAt {
		p.StateAt[pu] = make([]int32, StatesPerPU)
		for c := range p.StateAt[pu] {
			p.StateAt[pu][c] = -1
		}
	}
	for s, loc := range p.Of {
		p.StateAt[loc.PU][loc.Col] = int32(s)
	}
	return p, nil
}

// placeInto assigns the component's states to columns of one PU: plain
// states from the front, reporting states into the report region at the
// back.
func placeInto(a *automata.UnitAutomaton, p *Placement, comp []automata.StateID, pu int, plainUsed, reportUsed *int) error {
	for _, s := range comp {
		if len(a.States[s].Reports) > 0 {
			if *reportUsed >= p.ReportColumns {
				return fmt.Errorf("mapping: PU %d exceeded %d report columns", pu, p.ReportColumns)
			}
			p.Of[s] = Loc{PU: pu, Col: StatesPerPU - p.ReportColumns + *reportUsed}
			*reportUsed++
		} else {
			if *plainUsed >= StatesPerPU-p.ReportColumns {
				return fmt.Errorf("mapping: PU %d overflowed plain columns", pu)
			}
			p.Of[s] = Loc{PU: pu, Col: *plainUsed}
			*plainUsed++
		}
	}
	return nil
}

// components returns the weakly connected components of the automaton, each
// as a sorted state list.
func components(a *automata.UnitAutomaton) [][]automata.StateID {
	n := a.NumStates()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for i := range a.States {
		for _, t := range a.States[i].Succ {
			union(i, int(t))
		}
	}
	groups := map[int][]automata.StateID{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], automata.StateID(i))
	}
	out := make([][]automata.StateID, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	// Deterministic order: by first state ID.
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Stats summarizes a placement for reporting.
type Stats struct {
	NumPUs        int
	NumClusters   int
	UsedColumns   int
	ReportsPlaced int
	// CrossPUEdges counts transitions that leave their source PU (these
	// route through the cluster's global switches).
	CrossPUEdges int
}

// ComputeStats returns placement statistics.
func (p *Placement) ComputeStats(a *automata.UnitAutomaton) Stats {
	st := Stats{
		NumPUs:      p.NumPUs,
		NumClusters: (p.NumPUs + PUsPerCluster - 1) / PUsPerCluster,
	}
	for s := range a.States {
		st.UsedColumns++
		if len(a.States[s].Reports) > 0 {
			st.ReportsPlaced++
		}
		for _, t := range a.States[s].Succ {
			if p.Of[s].PU != p.Of[t].PU {
				st.CrossPUEdges++
			}
		}
	}
	return st
}
