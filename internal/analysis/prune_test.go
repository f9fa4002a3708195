package analysis

import (
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// pruneRun is what Minimize's prune rounds removed from one automaton, run
// to a fixpoint as Minimize runs them: counts by the certificate steps'
// Reason, the removed states that carried reports (each occupied a column
// of a PU's report region), and each original state's surviving ID (-1
// for a removed state).
type pruneRun struct {
	before, after int
	reasons       map[uint8]int
	reportRows    int
	remap         []automata.StateID
}

func (p pruneRun) removed() int { return p.before - p.after }

// pruneFixpoint runs pruneStep on ua until it removes nothing.
func pruneFixpoint(ua *automata.UnitAutomaton) pruneRun {
	p := pruneRun{before: len(ua.States), reasons: map[uint8]int{}, remap: make([]automata.StateID, len(ua.States))}
	for i := range p.remap {
		p.remap[i] = automata.StateID(i)
	}
	for {
		states := ua.States
		step, _ := pruneStep(ua)
		if step == nil {
			break
		}
		for i, r := range step.Reason {
			if r != 0 {
				p.reasons[r]++
				if len(states[i].Reports) > 0 {
					p.reportRows++
				}
			}
		}
		for i, id := range p.remap {
			if id >= 0 {
				p.remap[i] = step.Class[id]
			}
		}
	}
	p.after = len(ua.States)
	return p
}

func TestPruneUnreachable(t *testing.T) {
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0002}, Reports: []automata.Report{{Offset: 0, Code: 1, Origin: 1}}},
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Succ: []automata.StateID{1}},
	)
	res := pruneFixpoint(a)
	if res.reasons[ReasonUnreachable] != 1 || res.after != 2 {
		t.Fatalf("got %+v, want 1 unreachable, 2 left", res)
	}
	if res.remap[2] != -1 || res.remap[0] != 0 || res.remap[1] != 1 {
		t.Fatalf("bad remap %v", res.remap)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneNeverMatchCascades(t *testing.T) {
	// s1 accepts nothing, so s2 becomes unreachable and s0 useless: the
	// whole automaton dies in one fixpoint.
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1}},
		automata.UnitState{Match: [4]automata.UnitSet{0}, Succ: []automata.StateID{2}},
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Reports: []automata.Report{{Offset: 0, Code: 1, Origin: 1}}},
	)
	res := pruneFixpoint(a)
	if res.after != 0 || res.reasons[ReasonNeverMatch] != 1 || res.reasons[ReasonUnreachable] != 1 || res.reasons[ReasonUseless] != 1 {
		t.Fatalf("got %+v, want empty automaton via all three reasons", res)
	}
	if res.reportRows != 1 {
		t.Fatalf("report rows freed = %d, want 1", res.reportRows)
	}
}

func TestPruneSubsumedStartTwin(t *testing.T) {
	// s0's match set is a strict subset of s1's and both report the same
	// triple: s0 is dominated and removable.
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{0x00FF}, Start: automata.StartAllInput,
			Reports: []automata.Report{{Offset: 0, Code: 3, Origin: 3}}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0FFF}, Start: automata.StartAllInput,
			Reports: []automata.Report{{Offset: 0, Code: 3, Origin: 3}}},
	)
	before := funcsim.RunUnits(a.Clone(), funcsim.BytesToUnits([]byte{0x12, 0x34, 0xAB}, 4))
	res := pruneFixpoint(a)
	if res.reasons[ReasonSubsumed] != 1 || res.after != 1 {
		t.Fatalf("got %+v, want 1 subsumed", res)
	}
	after := funcsim.RunUnits(a, funcsim.BytesToUnits([]byte{0x12, 0x34, 0xAB}, 4))
	if before.Reports != after.Reports || len(before.Events) != len(after.Events) {
		t.Fatalf("event stream changed: %d/%d -> %d/%d reports/events",
			before.Reports, len(before.Events), after.Reports, len(after.Events))
	}
}

func TestPruneSubsumedWithPredecessors(t *testing.T) {
	// s0 fans out to s1 and s2; s1's behaviour is covered by s2 entirely.
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1, 2}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0003}, Reports: []automata.Report{{Offset: 0, Code: 5, Origin: 5}}},
		automata.UnitState{Match: [4]automata.UnitSet{0x000F}, Reports: []automata.Report{{Offset: 0, Code: 5, Origin: 5}}},
	)
	res := pruneFixpoint(a)
	if res.reasons[ReasonSubsumed] != 1 || res.reportRows != 1 {
		t.Fatalf("got %+v, want 1 subsumed report state", res)
	}
	if res.remap[1] != -1 {
		t.Fatalf("expected state 1 removed, remap %v", res.remap)
	}
}

func TestPruneKeepsDistinctReports(t *testing.T) {
	// Same shape as above but the reports differ: nothing is removable.
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1, 2}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0003}, Reports: []automata.Report{{Offset: 0, Code: 5, Origin: 5}}},
		automata.UnitState{Match: [4]automata.UnitSet{0x000F}, Reports: []automata.Report{{Offset: 0, Code: 6, Origin: 6}}},
	)
	if res := pruneFixpoint(a); res.removed() != 0 {
		t.Fatalf("removed %d states from a minimal automaton: %+v", res.removed(), res)
	}
}

func TestPruneEmptyAutomaton(t *testing.T) {
	a := automata.NewUnitAutomaton(4, 1, 2)
	if res := pruneFixpoint(a); res.removed() != 0 || res.before != 0 || res.after != 0 {
		t.Fatalf("got %+v for empty automaton", res)
	}
}

// TestPruneWorkloadEventsIdentical is the package-level half of the
// acceptance criterion: pruning must not change the functional-simulator
// event stream. (The root package's TestEntryPointsAgree covers every
// entry point on minimized engines for all 19 benchmarks.)
func TestPruneWorkloadEventsIdentical(t *testing.T) {
	for _, name := range []string{"Levenshtein", "Hamming", "Snort", "SPM"} {
		w, err := workload.Get(name, workload.DefaultScale, 6000)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{1, 2, 4} {
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			pruned := ua.Clone()
			res := pruneFixpoint(pruned)
			if err := pruned.Validate(); err != nil {
				t.Fatalf("%s rate %d: pruned automaton invalid: %v", name, rate, err)
			}
			units := funcsim.BytesToUnits(w.Input, 4)
			before := funcsim.RunUnits(ua, units)
			after := funcsim.RunUnits(pruned, units)
			if len(before.Events) != len(after.Events) {
				t.Fatalf("%s rate %d: %d events -> %d after pruning %d states",
					name, rate, len(before.Events), len(after.Events), res.removed())
			}
			for i := range before.Events {
				b, a := before.Events[i], after.Events[i]
				if b.Cycle != a.Cycle || b.Unit != a.Unit || b.Code != a.Code || b.Origin != a.Origin {
					t.Fatalf("%s rate %d: event %d diverged: %+v vs %+v", name, rate, i, b, a)
				}
			}
		}
	}
}

// TestPruneFindsSubsumption pins the motivating case: the Levenshtein
// widgets at rate 4 contain subsumed strided states (the insertion
// transitions create dominated continuation variants).
func TestPruneFindsSubsumption(t *testing.T) {
	w, err := workload.Get("Levenshtein", workload.DefaultScale, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := pruneFixpoint(ua)
	if res.reasons[ReasonSubsumed] == 0 {
		t.Fatal("expected subsumed states in Levenshtein at rate 4, found none")
	}
	if err := ua.Validate(); err != nil {
		t.Fatal(err)
	}
}
