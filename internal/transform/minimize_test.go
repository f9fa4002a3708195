package transform

import (
	"testing"

	"sunder/internal/automata"
)

// addChain appends a predecessor-less start state whose component is a
// chain of n states ending in a report, and returns the head. Every head
// matches the same nibble, so heads share a prefix key.
func addChain(ua *automata.UnitAutomaton, n int, code int32) automata.StateID {
	head := ua.AddState(automata.UnitState{
		Match: [automata.MaxRate]automata.UnitSet{1 << 3},
		Start: automata.StartAllInput,
	})
	prev := head
	for k := 1; k < n; k++ {
		s := ua.AddState(automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{1 << (k % 16)}})
		ua.States[prev].Succ = []automata.StateID{s}
		prev = s
	}
	ua.States[prev].Reports = []automata.Report{{Code: code, Origin: int32(prev)}}
	return head
}

// TestPrefixMergeComponentCap pins the prefix pass's cluster cap: a merge
// of predecessor-less states whose components together exceed
// componentCap is refused, and the next representative with the same key
// is tried, in insertion order.
func TestPrefixMergeComponentCap(t *testing.T) {
	ua := automata.NewUnitAutomaton(4, 1, 2)
	a := addChain(ua, 700, 1)
	b := addChain(ua, 400, 2) // 700+400 > 1024: b stays a representative
	addChain(ua, 400, 3)      // refused by a, merges into b (400+400)
	addChain(ua, 100, 4)      // merges into a, the first representative
	m := &minimizer{a: ua}
	if removed := m.mergeBy(prefixFields, m.joinable); removed != 2 {
		t.Fatalf("prefix pass removed %d states, want 2", removed)
	}
	// Representatives keep their index order, so a and b keep their IDs,
	// and each now also enables the chain of the head merged into it.
	for _, head := range []automata.StateID{a, b} {
		if s := ua.States[head]; s.Start != automata.StartAllInput || len(s.Succ) != 2 {
			t.Errorf("head %d: start %v, %d successors; want a start state enabling two chains", head, s.Start, len(s.Succ))
		}
	}
	// The merged components are 800 states each: 1600 > 1024, so a full
	// Minimize keeps two heads.
	Minimize(ua)
	heads := 0
	for i := range ua.States {
		if ua.States[i].Start != automata.StartNone {
			heads++
		}
	}
	if heads != 2 {
		t.Errorf("Minimize left %d start states, want 2", heads)
	}
}

// TestKeyChainCollision puts two states of different keys into one hash
// chain and checks that neither the shared intern helper nor the passes
// merge them: a chain hit is confirmed field by field.
func TestKeyChainCollision(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    keyFields
		pass func(m *minimizer) int
		// state v differs from state 0 in a field f selects.
		state func(v int) automata.UnitState
	}{
		{"suffix", suffixFields, func(m *minimizer) int { return m.mergeBy(suffixFields, nil) },
			func(v int) automata.UnitState {
				return automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{automata.UnitSet(v + 1)}, Start: automata.StartAllInput}
			}},
		{"prefix", prefixFields, func(m *minimizer) int { return m.mergeBy(prefixFields, m.joinable) },
			func(v int) automata.UnitState {
				return automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{automata.UnitSet(v + 1)}, Start: automata.StartAllInput}
			}},
		{"union group", groupFields, (*minimizer).unionMergePass,
			func(v int) automata.UnitState {
				return automata.UnitState{Match: [automata.MaxRate]automata.UnitSet{1}, Start: automata.StartAllInput,
					Reports: []automata.Report{{Code: int32(v)}}}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for v := 1; v < 1<<12; v++ {
				ua := automata.NewUnitAutomaton(4, 1, 2)
				ua.AddState(tc.state(0))
				ua.AddState(tc.state(v))
				m := &minimizer{a: ua}
				m.begin()
				if m.hash(0, tc.f)>>m.shift != m.hash(1, tc.f)>>m.shift {
					continue
				}
				if m.same(0, 1, tc.f) {
					t.Fatalf("states 0 and %d have equal keys", v)
				}
				if m.intern(0, tc.f, nil) != 0 || m.intern(1, tc.f, nil) != 1 {
					t.Fatal("intern merged two keys that share a chain")
				}
				if c := m.hash(0, tc.f) >> m.shift; m.head[c] != 0 || m.next[0] != 1 {
					t.Fatal("the two states are not chained together")
				}
				if removed := tc.pass(&minimizer{a: ua}); removed != 0 || ua.NumStates() != 2 {
					t.Fatalf("pass removed %d of two states with different keys", removed)
				}
				return
			}
			t.Fatal("no pair of keys shares a chain")
		})
	}
}
