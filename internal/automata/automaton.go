// Package automata defines the homogeneous nondeterministic finite automaton
// (NFA) model used throughout the Sunder reproduction.
//
// In a homogeneous NFA every transition entering a state occurs on the same
// input symbol set, so the symbol set (the "rule") can live on the state
// itself — the State Transition Element (STE) of the Micron Automata
// Processor and of all in-memory automata architectures. This property is
// what lets one memory column encode one state and one memory row encode one
// symbol (Section 2.1 of the paper).
//
// Two automaton types are provided:
//
//   - Automaton: byte-oriented (8-bit symbols); each state matches a set of
//     byte values represented as a 256-bit vector.
//   - UnitAutomaton: the transformed form, whose states match vectors of
//     small fixed-width units (4-bit nibbles, or single bits for the
//     intermediate binary form); this is the form Sunder executes.
package automata

import (
	"fmt"
	"slices"

	"sunder/internal/bitvec"
)

// StateID identifies a state within a single automaton.
type StateID int32

// StartKind describes when a state may self-activate.
type StartKind uint8

const (
	// StartNone marks an ordinary state: it activates only via incoming
	// transitions.
	StartNone StartKind = iota
	// StartOfData marks a state that activates only for the very first
	// input symbol (an anchored pattern head, "^" in regex terms).
	StartOfData
	// StartAllInput marks a state that activates on every input symbol
	// (an unanchored pattern head).
	StartAllInput
)

// String returns the ANML-style name of the start kind.
func (k StartKind) String() string {
	switch k {
	case StartNone:
		return "none"
	case StartOfData:
		return "start-of-data"
	case StartAllInput:
		return "all-input"
	default:
		return fmt.Sprintf("StartKind(%d)", uint8(k))
	}
}

// State is one STE of a byte-oriented homogeneous NFA.
type State struct {
	// Match holds the set of byte values this state accepts; bit b is set
	// iff the state matches input byte b.
	Match bitvec.V256
	// Start describes self-activation behaviour.
	Start StartKind
	// Report marks the state as a reporting (accepting) state.
	Report bool
	// ReportCode is application-defined metadata carried with every report
	// this state generates (typically a rule or pattern identifier).
	ReportCode int32
	// Succ lists the states activated when this state matches, in
	// ascending order without duplicates (Normalize enforces this).
	Succ []StateID
}

// Automaton is a byte-oriented homogeneous NFA.
type Automaton struct {
	States []State
}

// NewAutomaton returns an empty byte-oriented automaton.
func NewAutomaton() *Automaton { return &Automaton{} }

// AddState appends a state and returns its ID.
func (a *Automaton) AddState(s State) StateID {
	a.States = append(a.States, s)
	return StateID(len(a.States) - 1)
}

// AddEdge adds a transition from -> to. Duplicates are tolerated and removed
// by Normalize.
func (a *Automaton) AddEdge(from, to StateID) {
	a.States[from].Succ = append(a.States[from].Succ, to)
}

// NumStates returns the number of states.
func (a *Automaton) NumStates() int { return len(a.States) }

// NumEdges returns the total number of transitions.
func (a *Automaton) NumEdges() int {
	n := 0
	for i := range a.States {
		n += len(a.States[i].Succ)
	}
	return n
}

// NumReportStates returns the number of reporting states.
func (a *Automaton) NumReportStates() int {
	n := 0
	for i := range a.States {
		if a.States[i].Report {
			n++
		}
	}
	return n
}

// Normalize sorts successor lists and removes duplicate edges.
func (a *Automaton) Normalize() {
	for i := range a.States {
		a.States[i].Succ = normalizeSucc(a.States[i].Succ)
	}
}

func normalizeSucc(succ []StateID) []StateID {
	if len(succ) < 2 {
		return succ
	}
	slices.Sort(succ)
	return slices.Compact(succ)
}

// Validate checks structural invariants: successor IDs in range, successor
// lists sorted and duplicate-free, and at least one start state if the
// automaton is non-empty.
func (a *Automaton) Validate() error {
	hasStart := false
	for i := range a.States {
		s := &a.States[i]
		if s.Start != StartNone {
			hasStart = true
		}
		for j, t := range s.Succ {
			if t < 0 || int(t) >= len(a.States) {
				return fmt.Errorf("automata: state %d successor %d out of range [0,%d)", i, t, len(a.States))
			}
			if j > 0 && s.Succ[j-1] >= t {
				return fmt.Errorf("automata: state %d successors not sorted/unique at index %d", i, j)
			}
		}
	}
	if len(a.States) > 0 && !hasStart {
		return fmt.Errorf("automata: no start state")
	}
	return nil
}

// Stats summarizes the static structure of an automaton (the "Static
// Analysis" columns of Table 1).
type Stats struct {
	States       int
	Edges        int
	ReportStates int
	StartStates  int
	// AvgSymbolDensity is the mean fraction of the 256-symbol alphabet
	// accepted per state. High symbol density drives the 1-nibble state
	// overhead observed in Table 3.
	AvgSymbolDensity float64
}

// ComputeStats returns the static statistics of a.
func (a *Automaton) ComputeStats() Stats {
	st := Stats{States: len(a.States)}
	totalDensity := 0.0
	for i := range a.States {
		s := &a.States[i]
		st.Edges += len(s.Succ)
		if s.Report {
			st.ReportStates++
		}
		if s.Start != StartNone {
			st.StartStates++
		}
		totalDensity += float64(s.Match.Count()) / 256.0
	}
	if st.States > 0 {
		st.AvgSymbolDensity = totalDensity / float64(st.States)
	}
	return st
}

// Clone returns a deep copy of a.
func (a *Automaton) Clone() *Automaton {
	c := &Automaton{States: make([]State, len(a.States))}
	copy(c.States, a.States)
	for i := range c.States {
		c.States[i].Succ = append([]StateID(nil), a.States[i].Succ...)
	}
	return c
}

// Union merges other into a, renumbering other's states. The two automata
// then run as one machine (the usual way pattern sets are combined on
// automata processors).
func (a *Automaton) Union(other *Automaton) {
	base := StateID(len(a.States))
	for i := range other.States {
		s := other.States[i]
		succ := make([]StateID, len(s.Succ))
		for j, t := range s.Succ {
			succ[j] = t + base
		}
		s.Succ = succ
		a.States = append(a.States, s)
	}
}

// PruneUnreachable removes states not reachable from any start state and
// returns the number removed. Edge lists are rewritten in place.
func (a *Automaton) PruneUnreachable() int {
	reach := make([]bool, len(a.States))
	var stack []StateID
	for i := range a.States {
		if a.States[i].Start != StartNone {
			reach[i] = true
			stack = append(stack, StateID(i))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.States[s].Succ {
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	remap := make([]StateID, len(a.States))
	kept := 0
	for i := range a.States {
		if reach[i] {
			remap[i] = StateID(kept)
			kept++
		} else {
			remap[i] = -1
		}
	}
	removed := len(a.States) - kept
	if removed == 0 {
		return 0
	}
	out := make([]State, 0, kept)
	for i := range a.States {
		if !reach[i] {
			continue
		}
		s := a.States[i]
		succ := s.Succ[:0]
		for _, t := range s.Succ {
			if remap[t] >= 0 {
				succ = append(succ, remap[t])
			}
		}
		s.Succ = succ
		out = append(out, s)
	}
	a.States = out
	return removed
}
