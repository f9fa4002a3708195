package core

import (
	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
)

// ReportTable is the report half of a configured device in one compact,
// read-only table: per reporting state, where its report bit sits (PU and
// column, which the report model ORs into an entry) and its flattened list
// of (offset, de-dup key, code) entries, which the Reducer de-duplicates
// over. Configure builds it once per compile and every clone, reducer,
// report model, runner and shard shares it (DESIGN.md §4.17).
//
// Reporters are numbered densely in placement order, the machine plan's
// rank order (PU-major, column-minor): Snort at scale 0.02 has 184 of them
// among 1,437 states, so per state the table holds one 8-byte record.
type ReportTable struct {
	place *mapping.Placement
	rate  int64
	// at[s] is where state s reports: its reporter number, -1 for a state
	// that never reports, and its PU and column — the one load a report
	// model makes per state, and the reducer's first.
	at        []reportAt
	reporters []reporter
	entries   []ReportEntry
	// keys is the size of the de-dup key space, offsets × origins.
	keys int
}

// maxPUs bounds the PUs a report table locates: a location packs the PU
// above an 8-bit column into 32 bits.
const maxPUs = 1<<24 - 1

// reportAt is a state's reporter number and its location, PU<<8 | column.
type reportAt struct {
	reporter int32
	loc      uint32
}

// reporter is one reporting state's entries, entries[first:end].
type reporter struct{ first, end int32 }

// ReportEntry is one report of a reporting state: the unit offset within
// the cycle it ends at, the rule code, and the logical report point
// (Origin) the reducer de-duplicates on.
type ReportEntry struct {
	Offset int32
	Code   int32
	Origin int32
	State  automata.StateID
	// key is (Offset, Origin) numbered for the reducer's seen set.
	key int32
}

// NewReportTable builds the report table of automaton a placed by place.
func NewReportTable(a *automata.UnitAutomaton, place *mapping.Placement) *ReportTable {
	t := &ReportTable{place: place, rate: int64(a.Rate), at: make([]reportAt, len(place.Of))}
	for i := range t.at {
		t.at[i].reporter = -1
	}
	offsets, origins := 0, 0
	for i := range a.States {
		for _, rep := range a.States[i].Reports {
			offsets = max(offsets, int(rep.Offset)+1)
			origins = max(origins, int(rep.Origin)+1)
		}
	}
	t.keys = offsets * origins
	for pu, stateAt := range place.StateAt {
		for col, s := range stateAt {
			if s < 0 {
				continue
			}
			reps := a.States[s].Reports
			if len(reps) == 0 {
				continue
			}
			t.at[s] = reportAt{reporter: int32(len(t.reporters)), loc: uint32(pu)<<8 | uint32(col)}
			first := int32(len(t.entries))
			for _, rep := range reps {
				t.entries = append(t.entries, ReportEntry{
					Offset: int32(rep.Offset), Code: rep.Code, Origin: rep.Origin, State: automata.StateID(s),
					key: int32(int(rep.Offset)*origins + int(rep.Origin)),
				})
			}
			t.reporters = append(t.reporters, reporter{first: first, end: int32(len(t.entries))})
		}
	}
	return t
}

// Placement returns the placement the table locates reporters by.
func (t *ReportTable) Placement() *mapping.Placement { return t.place }

// Where returns the PU and column of reporting state s.
func (t *ReportTable) Where(s automata.StateID) (pu, col int) {
	loc := t.at[s].loc
	return int(loc >> 8), int(loc & 0xff)
}

// Entries returns every reporter's entries, flattened; the Reducer's kept
// indices point into it. It is shared; do not modify it.
func (t *ReportTable) Entries() []ReportEntry { return t.entries }

// AppendEvents appends the report events of the entries kept in device
// cycle cycle (Reducer.Cycle's output) to dst.
func (t *ReportTable) AppendEvents(dst []funcsim.ReportEvent, cycle int64, kept []int32) []funcsim.ReportEvent {
	for _, i := range kept {
		e := &t.entries[i]
		dst = append(dst, funcsim.ReportEvent{
			Cycle:  cycle,
			Unit:   cycle*t.rate + int64(e.Offset),
			State:  e.State,
			Code:   e.Code,
			Origin: e.Origin,
		})
	}
	return dst
}

// Reducer turns the reporting states of one device cycle into that cycle's
// reports. It is the single implementation of the report-cycle semantics
// outside the funcsim oracle (which keeps its own loop so the two can be
// compared): reports deduplicate per cycle by (offset, origin), every
// surviving report counts in Reports, and every cycle that reaches the
// reducer counts in ReportCycles. Whatever stepped the cycle — a Machine,
// a scheduler shard, the lazy DFA — feeds its report cycles through one of
// these, so all of them agree with the oracle by construction.
//
// A Reducer is single-goroutine scratch: one per machine run, shard, or
// façade runner.
type Reducer struct {
	// Reports, ReportCycles and MaxReportsPerCycle accumulate since the
	// last Reset (the Table 1 metrics).
	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int

	t *ReportTable
	// stamp[key] == gen marks the report point key as seen in the current
	// cycle; bumping gen empties the set. Built on the first cycle that can
	// hold a duplicate (see newCycle).
	stamp []uint32
	gen   uint32
	// telReports/telReportCycles are the device report counters of the
	// machine named at Reset; nil when it has no collector attached.
	telReports, telReportCycles *telemetry.Counter
}

// NewReducer returns a reducer over the report table t.
func NewReducer(t *ReportTable) Reducer { return Reducer{t: t} }

// newCycle empties the seen set: a new generation, with the stamps sized
// from the table's key space on first use and wiped when the generation
// counter wraps.
func (r *Reducer) newCycle() {
	if r.stamp == nil {
		r.stamp = make([]uint32, r.t.keys)
	}
	if r.gen++; r.gen == 0 {
		clear(r.stamp)
		r.gen = 1
	}
}

// Reset zeroes the counts for a new run. m is the machine whose cycles
// will be reduced: with a telemetry collector attached to it, the run's
// reports also count in device_reports / device_report_cycles. A nil m
// (cycles stepped by the lazy DFA, not by a device) keeps the device
// counters untouched.
func (r *Reducer) Reset(m *Machine) {
	r.Reports, r.ReportCycles, r.MaxReportsPerCycle = 0, 0, 0
	r.telReports, r.telReportCycles = nil, nil
	if m != nil && m.tel != nil {
		r.telReports, r.telReportCycles = m.tel.reports, m.tel.reportCycles
	}
}

// Cycle reduces one report cycle: ids are the states that reported in it
// (non-empty — callers keep their no-report fast path outside). It appends
// the indices of the surviving entries (into Entries) to kept, in state
// order, and returns it.
func (r *Reducer) Cycle(ids []automata.StateID, kept []int32) []int32 {
	t := r.t
	n := len(kept)
	if rp := &t.reporters[t.at[ids[0]].reporter]; len(ids) == 1 && rp.end-rp.first == 1 {
		// A lone report cannot be a duplicate: the common sparse cycle
		// skips the set altogether.
		kept = append(kept, rp.first)
	} else {
		r.newCycle()
		stamp, gen := r.stamp, r.gen
		for _, id := range ids {
			rp := &t.reporters[t.at[id].reporter]
			for i := rp.first; i < rp.end; i++ {
				if seen := &stamp[t.entries[i].key]; *seen != gen {
					*seen = gen
					kept = append(kept, i)
				}
			}
		}
	}
	nrep := len(kept) - n
	r.ReportCycles++
	r.Reports += int64(nrep)
	if nrep > r.MaxReportsPerCycle {
		r.MaxReportsPerCycle = nrep
	}
	if r.telReports != nil {
		r.telReports.Add(int64(nrep))
		r.telReportCycles.Inc()
	}
	return kept
}
