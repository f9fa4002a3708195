package report

import "sunder/internal/automata"

// Trace records a report-state stream — what a model's OnReportCycle
// receives — so that runs stepped apart (shards, prefilter shares) can
// feed one model in cycle order once they are merged.
type Trace struct {
	cycles []int64
	// ends[k] is where cycle k's states end in ids.
	ends []int32
	ids  []automata.StateID
}

// OnReportCycle appends one report cycle; states is copied.
func (t *Trace) OnReportCycle(cycle int64, states []automata.StateID) {
	t.cycles = append(t.cycles, cycle)
	t.ids = append(t.ids, states...)
	t.ends = append(t.ends, int32(len(t.ids)))
}

// Reset empties the trace.
func (t *Trace) Reset() { t.cycles, t.ends, t.ids = t.cycles[:0], t.ends[:0], t.ids[:0] }

// Replay feeds the recorded cycles, in order, to on.
func (t *Trace) Replay(on func(cycle int64, states []automata.StateID)) {
	start := int32(0)
	for k, c := range t.cycles {
		on(c, t.ids[start:t.ends[k]])
		start = t.ends[k]
	}
}
