// Certificate checking: the independent verifier behind Minimize.
//
// Minimize emits, for every rewrite it applies, a partition/merge map plus
// the witnesses needed to re-establish the rewrite's soundness (subsumption
// dominators, per-class members implied by the map). CheckCertificate
// replays the chain from a clone of the *original* automaton, verifying
// each step's proof obligations with its own graph computations — it never
// calls into the minimizer's marking or refinement code — and finally
// requires the replayed automaton to be structurally identical to the
// minimizer's output. The analyzer thereby validates the transform's
// output instead of trusting its implementation.
//
// Proof obligations per step kind (DESIGN.md §4.15 carries the full
// arguments):
//
//   - StepPrune: every removed state is (a) never able to activate (a
//     match position accepts nothing, or no start-rooted path of
//     activatable states reaches it), (b) useless (no path from it to a
//     reporting state within the activatable subgraph), or (c) subsumed by
//     a surviving witness that start-covers it, accepts a superset at
//     every vector position, carries a superset of its report triples, and
//     has a superset of its surviving successors and predecessors.
//   - StepBisim: members of one class have equal start kind, match
//     vectors and report triples, and equal sets of successor classes; the
//     quotient state carries exactly that common behaviour.
//   - StepPrefix: members of one class have equal start kind and match
//     vectors and equal sets of predecessor classes (hence, by induction
//     over cycles, identical activity); the quotient state carries the
//     union of members' successors and reports, with no two report triples
//     sharing (Offset, Origin) under different codes.
package analysis

import (
	"errors"
	"fmt"

	"sunder/internal/automata"
)

// StepKind identifies one certified rewrite in a minimization chain.
type StepKind uint8

// Step kinds.
const (
	// StepPrune removes dead states (one marking round).
	StepPrune StepKind = 1 + iota
	// StepBisim merges a bisimulation partition.
	StepBisim
	// StepPrefix merges a co-activation (common-prefix) partition.
	StepPrefix
)

// String returns the kind's display name.
func (k StepKind) String() string {
	switch k {
	case StepPrune:
		return "prune"
	case StepBisim:
		return "bisim"
	case StepPrefix:
		return "prefix"
	default:
		return fmt.Sprintf("stepkind(%d)", int(k))
	}
}

// Removal reasons recorded in a StepPrune's Reason vector; they mirror the
// dead-state classification of prune.go.
const (
	ReasonUnreachable = uint8(deadUnreachable)
	ReasonUseless     = uint8(deadUseless)
	ReasonNeverMatch  = uint8(deadNeverMatch)
	ReasonSubsumed    = uint8(deadSubsumed)
)

// MergeStep is one certified rewrite: the partition/merge map from the
// states of the automaton *before* the step to the states after it.
type MergeStep struct {
	// Kind selects the step's obligations and quotient rule.
	Kind StepKind
	// Class maps each pre-step state to its post-step state. For prune
	// steps a removed state maps to -1; for merge steps the map is total
	// and two states share a post-step ID iff they were merged.
	Class []automata.StateID
	// NumClasses is the state count after the step.
	NumClasses int
	// Reason records, for prune steps, why each removed state is dead
	// (ReasonUnreachable, ReasonUseless, ReasonNeverMatch, ReasonSubsumed;
	// zero for surviving states). Nil for merge steps.
	Reason []uint8
	// Dominator records, for prune steps, the surviving witness that
	// subsumes each state removed with ReasonSubsumed (-1 elsewhere). Nil
	// for merge steps.
	Dominator []automata.StateID
}

// Certificate is the machine-checkable equivalence certificate of one
// Minimize run: the ordered chain of rewrite steps from the original
// automaton to the minimized one.
type Certificate struct {
	Steps []MergeStep
}

// CheckCertificate verifies a minimization certificate against the
// original automaton: it replays every step from a clone of original,
// checking the step's proof obligations with independent graph
// computations, and finally requires structural equality with minimized.
// A nil error means the minimized automaton provably produces, on every
// input, exactly the original's deduplicated report stream.
func CheckCertificate(original, minimized *automata.UnitAutomaton, cert *Certificate) error {
	if cert == nil {
		return errors.New("certificate: nil certificate")
	}
	if original.UnitBits != minimized.UnitBits || original.Rate != minimized.Rate || original.SymbolUnits != minimized.SymbolUnits {
		return errors.New("certificate: original and minimized automata disagree on unit geometry")
	}
	cur := original.Clone()
	cur.Normalize()
	for si := range cert.Steps {
		step := &cert.Steps[si]
		var next *automata.UnitAutomaton
		var err error
		switch step.Kind {
		case StepPrune:
			next, err = checkPruneStep(cur, step)
		case StepBisim:
			next, err = checkBisimStep(cur, step)
		case StepPrefix:
			next, err = checkPrefixStep(cur, step)
		default:
			err = fmt.Errorf("unknown step kind %d", step.Kind)
		}
		if err != nil {
			return fmt.Errorf("certificate: step %d (%s): %w", si, step.Kind, err)
		}
		cur = next
	}
	want := minimized.Clone()
	want.Normalize()
	if err := sameAutomaton(cur, want); err != nil {
		return fmt.Errorf("certificate: replayed chain does not reproduce the minimized automaton: %w", err)
	}
	return nil
}

// checkPruneStep verifies a dead-state removal against the current
// automaton and returns the compacted result.
func checkPruneStep(cur *automata.UnitAutomaton, step *MergeStep) (*automata.UnitAutomaton, error) {
	n := len(cur.States)
	if len(step.Class) != n || len(step.Reason) != n || len(step.Dominator) != n {
		return nil, fmt.Errorf("step vectors cover %d/%d/%d states, automaton has %d",
			len(step.Class), len(step.Reason), len(step.Dominator), n)
	}
	if step.NumClasses < 0 || step.NumClasses >= n {
		return nil, fmt.Errorf("prune step keeps %d of %d states", step.NumClasses, n)
	}
	// Surviving IDs must form a bijection onto [0, NumClasses).
	taken := make([]bool, step.NumClasses)
	kept := 0
	for i, c := range step.Class {
		if c < 0 {
			continue
		}
		if int(c) >= step.NumClasses || taken[c] {
			return nil, fmt.Errorf("state %d: surviving ID %d out of range or duplicated", i, c)
		}
		taken[c] = true
		kept++
	}
	if kept != step.NumClasses {
		return nil, fmt.Errorf("%d states survive but step claims %d", kept, step.NumClasses)
	}

	act := activatable(cur)
	co := coReachable(cur, act)
	// Predecessor lists restricted to surviving sources, for the
	// subsumption witness checks.
	preds := make([][]automata.StateID, n)
	for i := range cur.States {
		if step.Class[i] < 0 {
			continue
		}
		for _, t := range cur.States[i].Succ {
			preds[t] = append(preds[t], automata.StateID(i))
		}
	}
	for i, c := range step.Class {
		if c >= 0 {
			if step.Reason[i] != 0 {
				return nil, fmt.Errorf("state %d survives but carries removal reason %d", i, step.Reason[i])
			}
			continue
		}
		switch step.Reason[i] {
		case ReasonNeverMatch:
			zero := false
			for p := 0; p < cur.Rate; p++ {
				if cur.States[i].Match[p] == 0 {
					zero = true
					break
				}
			}
			if !zero {
				return nil, fmt.Errorf("state %d removed as never-match but every position accepts a unit", i)
			}
		case ReasonUnreachable:
			if act[i] {
				return nil, fmt.Errorf("state %d removed as unreachable but a start-rooted activatable path reaches it", i)
			}
		case ReasonUseless:
			if co[i] {
				return nil, fmt.Errorf("state %d removed as useless but it reaches a reporting state", i)
			}
		case ReasonSubsumed:
			if err := checkSubsumption(cur, step, preds, automata.StateID(i)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("state %d removed with unknown reason %d", i, step.Reason[i])
		}
	}

	out := &automata.UnitAutomaton{UnitBits: cur.UnitBits, Rate: cur.Rate, SymbolUnits: cur.SymbolUnits}
	out.States = make([]automata.UnitState, step.NumClasses)
	for i := range cur.States {
		c := step.Class[i]
		if c < 0 {
			continue
		}
		s := &cur.States[i]
		st := automata.UnitState{Start: s.Start, Match: s.Match}
		st.Reports = append([]automata.Report(nil), s.Reports...)
		for _, t := range s.Succ {
			if step.Class[t] >= 0 {
				st.Succ = append(st.Succ, step.Class[t])
			}
		}
		out.States[c] = st
	}
	out.Normalize()
	return out, nil
}

// checkSubsumption verifies the witness for one subsumed removal: the
// dominator survives, start-covers the removed state, accepts a superset
// at every position, and carries supersets of its report triples,
// surviving successors and surviving predecessors. Whenever the removed
// state would have activated, the dominator is active too and already
// produces every event and every enable the removed state contributed.
func checkSubsumption(cur *automata.UnitAutomaton, step *MergeStep, preds [][]automata.StateID, i automata.StateID) error {
	d := step.Dominator[i]
	if d < 0 || int(d) >= len(cur.States) || d == i {
		return fmt.Errorf("state %d removed as subsumed with invalid dominator %d", i, d)
	}
	if step.Class[d] < 0 {
		return fmt.Errorf("state %d removed as subsumed but dominator %d is removed too", i, d)
	}
	s1, s2 := &cur.States[i], &cur.States[d]
	covered := false
	switch s1.Start {
	case automata.StartNone:
		covered = true
	case automata.StartOfData:
		covered = s2.Start == automata.StartOfData || s2.Start == automata.StartAllInput
	default:
		covered = s2.Start == automata.StartAllInput
	}
	if !covered {
		return fmt.Errorf("state %d: dominator %d start kind does not cover it", i, d)
	}
	for p := 0; p < cur.Rate; p++ {
		if s1.Match[p]&^s2.Match[p] != 0 {
			return fmt.Errorf("state %d: dominator %d misses match units at position %d", i, d, p)
		}
	}
	for _, r := range s1.Reports {
		if !containsReport(s2.Reports, r) {
			return fmt.Errorf("state %d: dominator %d misses report (%d,%d,%d)", i, d, r.Offset, r.Code, r.Origin)
		}
	}
	for _, t := range s1.Succ {
		if step.Class[t] >= 0 && !containsID(s2.Succ, t) {
			return fmt.Errorf("state %d: dominator %d misses surviving successor %d", i, d, t)
		}
	}
	for _, p := range preds[i] {
		if !containsID(cur.States[p].Succ, d) {
			return fmt.Errorf("state %d: dominator %d misses surviving predecessor %d", i, d, p)
		}
	}
	return nil
}

// checkBisimStep verifies a bisimulation merge and returns the quotient.
func checkBisimStep(cur *automata.UnitAutomaton, step *MergeStep) (*automata.UnitAutomaton, error) {
	groups, err := groupClasses(cur, step)
	if err != nil {
		return nil, err
	}
	for c, members := range groups {
		rep := members[0]
		repSucc := classImage(step.Class, cur.States[rep].Succ)
		for _, m := range members[1:] {
			if err := sameBehaviour(cur, rep, m); err != nil {
				return nil, fmt.Errorf("class %d: %w", c, err)
			}
			if !equalIDs(repSucc, classImage(step.Class, cur.States[m].Succ)) {
				return nil, fmt.Errorf("class %d: states %d and %d enable different successor classes", c, rep, m)
			}
		}
	}
	out := &automata.UnitAutomaton{UnitBits: cur.UnitBits, Rate: cur.Rate, SymbolUnits: cur.SymbolUnits}
	out.States = make([]automata.UnitState, step.NumClasses)
	for c, members := range groups {
		s := &cur.States[members[0]]
		st := automata.UnitState{Start: s.Start, Match: s.Match}
		st.Reports = append([]automata.Report(nil), s.Reports...)
		st.Succ = classImage(step.Class, s.Succ)
		out.States[c] = st
	}
	out.Normalize()
	return out, nil
}

// checkPrefixStep verifies a co-activation merge and returns the quotient.
func checkPrefixStep(cur *automata.UnitAutomaton, step *MergeStep) (*automata.UnitAutomaton, error) {
	groups, err := groupClasses(cur, step)
	if err != nil {
		return nil, err
	}
	n := len(cur.States)
	preds := make([][]automata.StateID, n)
	for i := range cur.States {
		for _, t := range cur.States[i].Succ {
			preds[t] = append(preds[t], automata.StateID(i))
		}
	}
	for c, members := range groups {
		rep := members[0]
		repPred := classImage(step.Class, preds[rep])
		for _, m := range members[1:] {
			s1, s2 := &cur.States[rep], &cur.States[m]
			if s1.Start != s2.Start {
				return nil, fmt.Errorf("class %d: states %d and %d differ in start kind", c, rep, m)
			}
			for p := 0; p < cur.Rate; p++ {
				if s1.Match[p] != s2.Match[p] {
					return nil, fmt.Errorf("class %d: states %d and %d differ in match position %d", c, rep, m, p)
				}
			}
			if !equalIDs(repPred, classImage(step.Class, preds[m])) {
				return nil, fmt.Errorf("class %d: states %d and %d are enabled by different predecessor classes", c, rep, m)
			}
		}
		if len(members) > 1 {
			type key struct {
				off    uint8
				origin int32
			}
			codes := make(map[key]int32)
			for _, m := range members {
				for _, r := range cur.States[m].Reports {
					k := key{r.Offset, r.Origin}
					if prev, ok := codes[k]; ok && prev != r.Code {
						return nil, fmt.Errorf("class %d: merged reports carry codes %d and %d under one (offset %d, origin %d)",
							c, prev, r.Code, r.Offset, r.Origin)
					}
					codes[k] = r.Code
				}
			}
		}
	}
	out := &automata.UnitAutomaton{UnitBits: cur.UnitBits, Rate: cur.Rate, SymbolUnits: cur.SymbolUnits}
	out.States = make([]automata.UnitState, step.NumClasses)
	for c, members := range groups {
		rep := &cur.States[members[0]]
		st := automata.UnitState{Start: rep.Start, Match: rep.Match}
		for _, m := range members {
			s := &cur.States[m]
			st.Reports = append(st.Reports, s.Reports...)
			st.Succ = append(st.Succ, classImage(step.Class, s.Succ)...)
		}
		out.States[c] = st
	}
	out.Normalize()
	return out, nil
}

// groupClasses validates a merge step's class map (total, in range, every
// class inhabited) and returns each class's members in increasing state
// order.
func groupClasses(cur *automata.UnitAutomaton, step *MergeStep) ([][]automata.StateID, error) {
	n := len(cur.States)
	if len(step.Class) != n {
		return nil, fmt.Errorf("class map covers %d states, automaton has %d", len(step.Class), n)
	}
	if step.NumClasses <= 0 || step.NumClasses > n {
		return nil, fmt.Errorf("class count %d out of range (1..%d)", step.NumClasses, n)
	}
	groups := make([][]automata.StateID, step.NumClasses)
	for i, c := range step.Class {
		if c < 0 || int(c) >= step.NumClasses {
			return nil, fmt.Errorf("state %d: class %d out of range", i, c)
		}
		groups[c] = append(groups[c], automata.StateID(i))
	}
	for c, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("class %d has no members", c)
		}
	}
	return groups, nil
}

// sameBehaviour checks two states are observably identical: equal start
// kind, match vectors and report triples.
func sameBehaviour(cur *automata.UnitAutomaton, a, b automata.StateID) error {
	s1, s2 := &cur.States[a], &cur.States[b]
	if s1.Start != s2.Start {
		return fmt.Errorf("states %d and %d differ in start kind", a, b)
	}
	for p := 0; p < cur.Rate; p++ {
		if s1.Match[p] != s2.Match[p] {
			return fmt.Errorf("states %d and %d differ in match position %d", a, b, p)
		}
	}
	if len(s1.Reports) != len(s2.Reports) {
		return fmt.Errorf("states %d and %d differ in report count", a, b)
	}
	for i := range s1.Reports {
		if s1.Reports[i] != s2.Reports[i] {
			return fmt.Errorf("states %d and %d differ in report %d", a, b, i)
		}
	}
	return nil
}

// activatable marks states that can ever activate: every match position
// accepts at least one unit, and a start-rooted path of such states
// reaches the state. A state failing this can never be active, so its
// removal (and the loss of its out-edges) is unobservable.
func activatable(a *automata.UnitAutomaton) []bool {
	n := len(a.States)
	canMatch := make([]bool, n)
	for i := range a.States {
		ok := true
		for p := 0; p < a.Rate; p++ {
			if a.States[i].Match[p] == 0 {
				ok = false
				break
			}
		}
		canMatch[i] = ok
	}
	act := make([]bool, n)
	var stack []automata.StateID
	for i := range a.States {
		if canMatch[i] && a.States[i].Start != automata.StartNone {
			act[i] = true
			stack = append(stack, automata.StateID(i))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.States[s].Succ {
			if canMatch[t] && !act[t] {
				act[t] = true
				stack = append(stack, t)
			}
		}
	}
	return act
}

// coReachable marks states with a path to a reporting state within the
// activatable subgraph. A state outside the set never contributes to the
// report stream: any successor of it that could reach a report would put
// the state itself in the set.
func coReachable(a *automata.UnitAutomaton, act []bool) []bool {
	n := len(a.States)
	preds := make([][]automata.StateID, n)
	for i := range a.States {
		if !act[i] {
			continue
		}
		for _, t := range a.States[i].Succ {
			if act[t] {
				preds[t] = append(preds[t], automata.StateID(i))
			}
		}
	}
	co := make([]bool, n)
	var stack []automata.StateID
	for i := range a.States {
		if act[i] && len(a.States[i].Reports) > 0 {
			co[i] = true
			stack = append(stack, automata.StateID(i))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[s] {
			if !co[p] {
				co[p] = true
				stack = append(stack, p)
			}
		}
	}
	return co
}

// sameAutomaton checks structural equality of two normalized automata on
// every semantically relevant field.
func sameAutomaton(a, b *automata.UnitAutomaton) error {
	if a.UnitBits != b.UnitBits || a.Rate != b.Rate || a.SymbolUnits != b.SymbolUnits {
		return errors.New("unit geometry differs")
	}
	if len(a.States) != len(b.States) {
		return fmt.Errorf("state counts differ: %d vs %d", len(a.States), len(b.States))
	}
	for i := range a.States {
		s1, s2 := &a.States[i], &b.States[i]
		if s1.Start != s2.Start {
			return fmt.Errorf("state %d: start kind differs", i)
		}
		for p := 0; p < a.Rate; p++ {
			if s1.Match[p] != s2.Match[p] {
				return fmt.Errorf("state %d: match position %d differs", i, p)
			}
		}
		if len(s1.Reports) != len(s2.Reports) {
			return fmt.Errorf("state %d: report counts differ", i)
		}
		for j := range s1.Reports {
			if s1.Reports[j] != s2.Reports[j] {
				return fmt.Errorf("state %d: report %d differs", i, j)
			}
		}
		if !equalIDs(s1.Succ, s2.Succ) {
			return fmt.Errorf("state %d: successor lists differ", i)
		}
	}
	return nil
}

// containsReport reports whether r appears in rs.
func containsReport(rs []automata.Report, r automata.Report) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// containsID reports whether id appears in the sorted list ids.
func containsID(ids []automata.StateID, id automata.StateID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// equalIDs reports whether two ID lists are identical.
func equalIDs(a, b []automata.StateID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
