package core

import (
	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/telemetry"
)

// Reducer turns the reporting states of one device cycle into that cycle's
// reports. It is the single implementation of the report-cycle semantics
// outside the funcsim oracle (which keeps its own loop so the two can be
// compared): reports deduplicate per cycle by (offset, origin), every
// surviving report counts in Reports, and every cycle that reaches the
// reducer counts in ReportCycles. Whatever stepped the cycle — a Machine,
// a scheduler shard, the lazy DFA, a recovery guard releasing a committed
// window — feeds its report cycles through one of these, so all of them
// agree with the oracle by construction.
//
// A Reducer is single-goroutine scratch: one per machine run, shard, or
// façade runner.
type Reducer struct {
	// Reports, ReportCycles and MaxReportsPerCycle accumulate since the
	// last Reset (the Table 1 metrics).
	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int

	a      *automata.UnitAutomaton
	record bool
	// stamp[offset*origins+origin] == gen marks the report point (offset,
	// origin) as seen in the current cycle; bumping gen empties the set.
	// Built on the first cycle that can hold a duplicate (see newCycle).
	stamp   []uint32
	origins int
	gen     uint32
	// telReports/telReportCycles are the device report counters of the
	// machine named at Reset; nil when it has no collector attached.
	telReports, telReportCycles *telemetry.Counter
}

// NewReducer returns a reducer for report cycles of automaton a. With
// record set, Cycle appends each cycle's surviving reports to its dst
// argument; counting-only callers leave it off.
func NewReducer(a *automata.UnitAutomaton, record bool) Reducer {
	return Reducer{a: a, record: record}
}

// newCycle empties the seen set: a new generation, with the stamps sized
// from the automaton's report points on first use and wiped when the
// generation counter wraps.
func (r *Reducer) newCycle() {
	if r.stamp == nil {
		offsets := 0
		for i := range r.a.States {
			for _, rep := range r.a.States[i].Reports {
				offsets = max(offsets, int(rep.Offset)+1)
				r.origins = max(r.origins, int(rep.Origin)+1)
			}
		}
		r.stamp = make([]uint32, offsets*r.origins)
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

// Cycle reduces one report cycle: ids are the states that reported in
// device cycle cycle (non-empty — callers keep their no-report fast path
// outside). When recording, the cycle's reports are appended to dst in
// state order; the possibly grown slice is returned either way.
func (r *Reducer) Cycle(cycle int64, ids []automata.StateID, dst []funcsim.ReportEvent) []funcsim.ReportEvent {
	// A lone report cannot be a duplicate: the common sparse cycle skips
	// the set altogether.
	lone := len(ids) == 1 && len(r.a.States[ids[0]].Reports) == 1
	if !lone {
		r.newCycle()
	}
	base := cycle * int64(r.a.Rate)
	nrep := 0
	for _, id := range ids {
		for _, rep := range r.a.States[id].Reports {
			if !lone {
				seen := &r.stamp[int(rep.Offset)*r.origins+int(rep.Origin)]
				if *seen == r.gen {
					continue
				}
				*seen = r.gen
			}
			nrep++
			if r.record {
				dst = append(dst, funcsim.ReportEvent{
					Cycle:  cycle,
					Unit:   base + int64(rep.Offset),
					State:  id,
					Code:   rep.Code,
					Origin: rep.Origin,
				})
			}
		}
	}
	r.ReportCycles++
	r.Reports += int64(nrep)
	if nrep > r.MaxReportsPerCycle {
		r.MaxReportsPerCycle = nrep
	}
	if r.telReports != nil {
		r.telReports.Add(int64(nrep))
		r.telReportCycles.Inc()
	}
	return dst
}
