package core

import "sunder/internal/automata"

// Helpers shared with the external test package core_test, whose tests
// drive a machine together with its report model (report imports core, so
// those tests cannot live inside the package).
var (
	BuildPatterns       = build
	EventsEqual         = eventsEqual
	RandomByteAutomaton = randomByteAutomaton
	WorkloadMachine     = workloadMachine
)

// SetReducerGeneration sets r's seen-set generation counter, so a test can
// drive it to the wrap without 2^32 report cycles.
func SetReducerGeneration(r *Reducer, gen uint32) { r.gen = gen }

// ReportEntriesOf returns the entries of reporting state s in t.
func ReportEntriesOf(t *ReportTable, s automata.StateID) []ReportEntry {
	r := t.reporters[t.at[s].reporter]
	return t.entries[r.first:r.end]
}
