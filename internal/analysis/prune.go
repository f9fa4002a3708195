package analysis

import (
	"sunder/internal/automata"
)

// deadReason classifies why a state can be removed without changing the
// automaton's report stream.
type deadReason uint8

const (
	live deadReason = iota
	// deadUnreachable: no path from any start state reaches the state.
	deadUnreachable
	// deadUseless: reachable, but no path from the state reaches a
	// reporting state, so its activity can never contribute a report.
	deadUseless
	// deadNeverMatch: some vector position accepts no unit value, so the
	// state can never activate (not even on Pad, which satisfies only
	// full "don't care" sets).
	deadNeverMatch
	// deadSubsumed: a distinct live state dominates it — matches a
	// superset of inputs, is enabled by a superset of sources, enables a
	// superset of successors, and carries a superset of its report
	// triples. Because the simulator and the machine deduplicate reports
	// per cycle by (Offset, Origin), the dominator already produces every
	// event the subsumed state would.
	deadSubsumed
)

// classifyDead returns, without mutating ua, why each state is dead
// (indexed by state ID; live for a state that survives).
//
// Classification iterates to a fixpoint, as Minimize's prune rounds do:
// each round marks never-match, unreachable, useless and subsumed states
// on the current graph, then rebuilds the graph without them. Subsumption
// verdicts are always taken against a per-round snapshot, so the soundness
// argument (dominator chains end in a state that survives the round)
// holds.
func classifyDead(ua *automata.UnitAutomaton) []deadReason {
	reasons := make([]deadReason, len(ua.States))
	work := ua.Clone()
	orig := make([]automata.StateID, len(ua.States))
	for i := range orig {
		orig[i] = automata.StateID(i)
	}
	for {
		mark, _ := markDeadRound(work)
		removed := 0
		for i, r := range mark {
			if r != live {
				reasons[orig[i]] = r
				removed++
			}
		}
		if removed == 0 {
			return reasons
		}
		work, orig = rebuildLive(work, orig, mark)
	}
}

// markDeadRound runs one round of the four dead-state passes over a and
// returns the per-state verdicts for this round, plus the dominator chosen
// for each state marked subsumed (-1 elsewhere). The dominator is the
// subsumption pass's witness; Minimize records it in the equivalence
// certificate so CheckCertificate can re-verify the verdict independently.
func markDeadRound(a *automata.UnitAutomaton) ([]deadReason, []automata.StateID) {
	n := len(a.States)
	mark := make([]deadReason, n)
	dom := make([]automata.StateID, n)
	for i := range dom {
		dom[i] = -1
	}

	// Never-match: a position accepting nothing blocks every activation.
	for i := range a.States {
		for p := 0; p < a.Rate; p++ {
			if a.States[i].Match[p] == 0 {
				mark[i] = deadNeverMatch
				break
			}
		}
	}

	// Reachability from start states, not traversing marked states.
	reach := make([]bool, n)
	var stack []automata.StateID
	for i := range a.States {
		if mark[i] == live && a.States[i].Start != automata.StartNone {
			reach[i] = true
			stack = append(stack, automata.StateID(i))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.States[s].Succ {
			if mark[t] == live && !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	for i := range a.States {
		if mark[i] == live && !reach[i] {
			mark[i] = deadUnreachable
		}
	}

	// Co-reachability: reverse BFS from reporting states over the
	// still-unmarked subgraph. The predecessor lists double as the
	// subsumption pass's enable-source sets.
	preds := make([][]automata.StateID, n)
	for i := range a.States {
		if mark[i] != live {
			continue
		}
		for _, t := range a.States[i].Succ {
			if mark[t] == live {
				preds[t] = append(preds[t], automata.StateID(i))
			}
		}
	}
	co := make([]bool, n)
	for i := range a.States {
		if mark[i] == live && len(a.States[i].Reports) > 0 {
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
	for i := range a.States {
		if mark[i] == live && !co[i] {
			mark[i] = deadUseless
		}
	}

	// The useless pass invalidated some predecessor lists; rebuild them
	// over the surviving subgraph for the subsumption pass.
	for i := range preds {
		preds[i] = preds[i][:0]
	}
	for i := range a.States {
		if mark[i] != live {
			continue
		}
		for _, t := range a.States[i].Succ {
			if mark[t] == live {
				preds[t] = append(preds[t], automata.StateID(i))
			}
		}
	}
	markSubsumed(a, mark, preds, dom)
	return mark, dom
}

// markSubsumed marks live states dominated by another live state. States
// are processed in increasing ID order and a state already marked this
// round is never used as a dominator, so every removal's dominator either
// survives the round or was itself removed later with a live dominator —
// the chain always ends in a surviving state, and domination is transitive
// (all the subset relations are).
func markSubsumed(a *automata.UnitAutomaton, mark []deadReason, preds [][]automata.StateID, dom []automata.StateID) {
	// Start-enabled states with no live predecessors can only be
	// dominated by other start states; collect those once.
	var starts []automata.StateID
	for i := range a.States {
		if mark[i] == live && a.States[i].Start != automata.StartNone {
			starts = append(starts, automata.StateID(i))
		}
	}
	for i := range a.States {
		s1 := automata.StateID(i)
		if mark[s1] != live {
			continue
		}
		// Candidate dominators: preds(s1) ⊆ preds(s2) forces s2 into the
		// successor set of every predecessor of s1, so any predecessor's
		// successor list is a complete candidate set — pick the smallest.
		var cands []automata.StateID
		if ps := preds[s1]; len(ps) > 0 {
			best := ps[0]
			for _, p := range ps[1:] {
				if len(a.States[p].Succ) < len(a.States[best].Succ) {
					best = p
				}
			}
			cands = a.States[best].Succ
		} else {
			cands = starts
		}
		for _, s2 := range cands {
			if s2 == s1 || mark[s2] != live {
				continue
			}
			if subsumes(a, mark, preds, s1, s2) {
				mark[s1] = deadSubsumed
				dom[s1] = s2
				break
			}
		}
	}
}

// subsumes reports whether live state s2 dominates live state s1: whenever
// s1 activates, s2 activates too, and s2 produces a superset of s1's
// report triples and successor enables. Removing s1 then leaves every
// surviving state's activity, and the per-cycle deduplicated report
// stream, unchanged.
func subsumes(a *automata.UnitAutomaton, mark []deadReason, preds [][]automata.StateID, s1, s2 automata.StateID) bool {
	st1, st2 := &a.States[s1], &a.States[s2]
	if !startCovered(st1.Start, st2.Start) {
		return false
	}
	for p := 0; p < a.Rate; p++ {
		if st1.Match[p]&^st2.Match[p] != 0 {
			return false
		}
	}
	if !reportSubset(st1.Reports, st2.Reports) {
		return false
	}
	if !liveIDSubset(st1.Succ, st2.Succ, mark) {
		return false
	}
	// Predecessor lists are already restricted to live states and are
	// sorted by construction (built in increasing source order).
	if !liveIDSubset(preds[s1], preds[s2], nil) {
		return false
	}
	return true
}

// startCovered reports whether a state with start kind k2 is start-enabled
// whenever one with kind k1 is. StartAllInput fires at every symbol
// boundary including cycle 0, so it covers StartOfData.
func startCovered(k1, k2 automata.StartKind) bool {
	switch k1 {
	case automata.StartNone:
		return true
	case automata.StartOfData:
		return k2 == automata.StartOfData || k2 == automata.StartAllInput
	default: // StartAllInput
		return k2 == automata.StartAllInput
	}
}

// reportSubset reports whether every (Offset, Code, Origin) triple of sub
// appears in super. Report lists are tiny (usually one entry), so the scan
// is quadratic without concern.
func reportSubset(sub, super []automata.Report) bool {
	if len(sub) > len(super) {
		return false
	}
outer:
	for _, r := range sub {
		for _, s := range super {
			if r == s {
				continue outer
			}
		}
		return false
	}
	return true
}

// liveIDSubset reports whether the live elements of sorted list sub all
// appear in sorted list super. A nil mark treats every element as live.
func liveIDSubset(sub, super []automata.StateID, mark []deadReason) bool {
	j := 0
	for _, x := range sub {
		if mark != nil && mark[x] != live {
			continue
		}
		for j < len(super) && super[j] < x {
			j++
		}
		if j == len(super) || super[j] != x {
			return false
		}
		j++
	}
	return true
}

// rebuildLive compacts a to its live states, dropping edges into removed
// states, and returns the new automaton plus its state→original mapping.
func rebuildLive(a *automata.UnitAutomaton, orig []automata.StateID, mark []deadReason) (*automata.UnitAutomaton, []automata.StateID) {
	remap := make([]automata.StateID, len(a.States))
	kept := 0
	for i := range a.States {
		if mark[i] == live {
			remap[i] = automata.StateID(kept)
			kept++
		} else {
			remap[i] = -1
		}
	}
	out := &automata.UnitAutomaton{UnitBits: a.UnitBits, Rate: a.Rate, SymbolUnits: a.SymbolUnits}
	out.States = make([]automata.UnitState, 0, kept)
	newOrig := make([]automata.StateID, 0, kept)
	for i := range a.States {
		if mark[i] != live {
			continue
		}
		s := a.States[i]
		succ := make([]automata.StateID, 0, len(s.Succ))
		for _, t := range s.Succ {
			if remap[t] >= 0 {
				succ = append(succ, remap[t])
			}
		}
		s.Succ = succ
		out.States = append(out.States, s)
		newOrig = append(newOrig, orig[i])
	}
	return out, newOrig
}
