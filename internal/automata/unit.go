package automata

import (
	"cmp"
	"fmt"
	"slices"
)

// MaxRate is the maximum number of units a UnitAutomaton state can consume
// per cycle. Sunder's 256-row subarray fits four 16-row nibble groups, so
// the hardware supports at most four nibbles per cycle (16-bit processing).
const MaxRate = 4

// UnitSet is the set of unit values a state accepts at one vector position.
// For 4-bit units, bit v (0..15) is set iff nibble value v is accepted. For
// 1-bit units only bits 0 and 1 are meaningful. A UnitSet of AllUnits acts
// as "don't care" for that position.
type UnitSet uint16

// AllUnits returns the full unit set for a unit width of bits.
func AllUnits(bits int) UnitSet {
	return UnitSet(uint32(1)<<(1<<uint(bits)) - 1)
}

// Has reports whether value v is in the set.
func (u UnitSet) Has(v int) bool { return u&(1<<uint(v)) != 0 }

// Report describes one report emitted by a UnitState.
type Report struct {
	// Offset is the unit position within the state's vector (0..Rate-1)
	// at which the report logically occurs; it recovers exact report
	// cycles after temporal striding.
	Offset uint8
	// Code is the application-defined report metadata inherited from the
	// byte-oriented automaton.
	Code int32
	// Origin identifies the logical report point (the reporting state of
	// the automaton the transformation started from). After temporal
	// striding, one logical match can be represented by several
	// simultaneously active strided states — e.g. a fresh vector-aligned
	// occurrence and a continuation of the previous vector; the simulator
	// deduplicates reports per cycle by (Offset, Origin) so transformed
	// automata generate exactly the events of the original.
	Origin int32
}

// UnitState is one STE of a transformed automaton. A state matches when, for
// every position p in [0,Rate), the input unit at position p is in Match[p].
// In hardware each position is a 16-row one-hot group and the per-position
// results are combined by multi-row activation (Section 5.1.1).
type UnitState struct {
	Match   [MaxRate]UnitSet
	Start   StartKind
	Reports []Report
	Succ    []StateID
}

// UnitAutomaton is an automaton over fixed-width units (nibbles or bits),
// possibly temporally strided to consume Rate units per cycle.
type UnitAutomaton struct {
	// UnitBits is the width of one unit: 4 for nibble automata, 1 for the
	// intermediate binary form.
	UnitBits int
	// Rate is the number of units consumed per cycle (1, 2 or 4 for
	// nibbles). The symbol processing rate in bits is UnitBits*Rate.
	Rate int
	// SymbolUnits is the number of units that make up one original input
	// symbol (2 for byte input split into nibbles, 8 for the binary
	// form). Unanchored start states may only begin matching at original
	// symbol boundaries; the simulator and the striding transformation
	// both honour this.
	SymbolUnits int
	States      []UnitState
}

// NewUnitAutomaton returns an empty unit automaton.
func NewUnitAutomaton(unitBits, rate, symbolUnits int) *UnitAutomaton {
	return &UnitAutomaton{UnitBits: unitBits, Rate: rate, SymbolUnits: symbolUnits}
}

// AddState appends a state and returns its ID.
func (a *UnitAutomaton) AddState(s UnitState) StateID {
	a.States = append(a.States, s)
	return StateID(len(a.States) - 1)
}

// NumStates returns the number of states.
func (a *UnitAutomaton) NumStates() int { return len(a.States) }

// NumEdges returns the total number of transitions.
func (a *UnitAutomaton) NumEdges() int {
	n := 0
	for i := range a.States {
		n += len(a.States[i].Succ)
	}
	return n
}

// NumReportStates returns the number of states with at least one report.
func (a *UnitAutomaton) NumReportStates() int {
	n := 0
	for i := range a.States {
		if len(a.States[i].Reports) > 0 {
			n++
		}
	}
	return n
}

// BitsPerCycle returns the symbol processing rate in bits per cycle.
func (a *UnitAutomaton) BitsPerCycle() int { return a.UnitBits * a.Rate }

// Normalize sorts and deduplicates successor lists and report lists.
func (a *UnitAutomaton) Normalize() {
	for i := range a.States {
		a.States[i].Normalize()
	}
}

// Normalize sorts and deduplicates the state's successor list and its
// report list, reports ordered by (Offset, Origin, Code).
func (s *UnitState) Normalize() {
	s.Succ = normalizeSucc(s.Succ)
	if len(s.Reports) < 2 {
		return
	}
	slices.SortFunc(s.Reports, func(x, y Report) int {
		return cmp.Or(cmp.Compare(x.Offset, y.Offset), cmp.Compare(x.Origin, y.Origin), cmp.Compare(x.Code, y.Code))
	})
	s.Reports = slices.Compact(s.Reports)
}

// Validate checks structural invariants.
func (a *UnitAutomaton) Validate() error {
	if a.UnitBits != 1 && a.UnitBits != 4 {
		return fmt.Errorf("automata: unsupported unit width %d", a.UnitBits)
	}
	if a.Rate < 1 || a.Rate > MaxRate {
		return fmt.Errorf("automata: rate %d out of range [1,%d]", a.Rate, MaxRate)
	}
	if a.SymbolUnits < 1 {
		return fmt.Errorf("automata: symbol units %d < 1", a.SymbolUnits)
	}
	all := AllUnits(a.UnitBits)
	hasStart := false
	for i := range a.States {
		s := &a.States[i]
		if s.Start != StartNone {
			hasStart = true
		}
		for p := 0; p < a.Rate; p++ {
			if s.Match[p]&^all != 0 {
				return fmt.Errorf("automata: state %d position %d has bits outside unit width", i, p)
			}
		}
		for _, r := range s.Reports {
			if int(r.Offset) >= a.Rate {
				return fmt.Errorf("automata: state %d report offset %d >= rate %d", i, r.Offset, a.Rate)
			}
		}
		for j, t := range s.Succ {
			if t < 0 || int(t) >= len(a.States) {
				return fmt.Errorf("automata: state %d successor %d out of range", i, t)
			}
			if j > 0 && s.Succ[j-1] >= t {
				return fmt.Errorf("automata: state %d successors not sorted/unique", i)
			}
		}
	}
	if len(a.States) > 0 && !hasStart {
		return fmt.Errorf("automata: no start state")
	}
	return nil
}

// Clone returns a deep copy of a.
func (a *UnitAutomaton) Clone() *UnitAutomaton {
	c := &UnitAutomaton{UnitBits: a.UnitBits, Rate: a.Rate, SymbolUnits: a.SymbolUnits}
	c.States = make([]UnitState, len(a.States))
	copy(c.States, a.States)
	for i := range c.States {
		c.States[i].Succ = append([]StateID(nil), a.States[i].Succ...)
		c.States[i].Reports = append([]Report(nil), a.States[i].Reports...)
	}
	return c
}

// PruneUnreachable removes states unreachable from any start state and
// returns the number removed.
func (a *UnitAutomaton) PruneUnreachable() int {
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
	out := make([]UnitState, 0, kept)
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
