package core

import (
	"slices"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
)

// Direct unit tests of the subarray model's matching: multi-row activation
// and the pad. (The report region's entry packing and summarization are the
// report model's; report_test.go tests them.)

// matchVector configures a machine at rate over one hand-built unit state
// per match tuple, every one an unanchored start, steps vec on it and
// returns the states that came on — the columns of the match vector for vec
// — after checking them against the functional simulator's step.
func matchVector(t *testing.T, rate int, vec []funcsim.Unit, states ...[automata.MaxRate]automata.UnitSet) []automata.StateID {
	t.Helper()
	ua := automata.NewUnitAutomaton(4, rate, 2)
	for _, match := range states {
		ua.AddState(automata.UnitState{Match: match, Start: automata.StartAllInput})
	}
	place, err := mapping.Place(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Configure(ua, place, DefaultConfig(rate))
	if err != nil {
		t.Fatal(err)
	}
	m.Step(vec, nil)
	got := m.ActiveStates(nil)
	slices.Sort(got)
	sim := funcsim.NewUnitSimulator(ua)
	sim.Step(vec, nil)
	var want []automata.StateID
	for _, i := range sim.Active().Bits() {
		want = append(want, automata.StateID(i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("vector %v: machine activates %v, funcsim %v", vec, got, want)
	}
	return got
}

func TestMatchVectorMultiRowActivation(t *testing.T) {
	// State 0 accepts nibble 0xA at position 0 and 0x1 at position 1;
	// state 1 accepts 0xA at position 0 and nothing at position 1.
	states := [][automata.MaxRate]automata.UnitSet{{1 << 0xA, 1 << 0x1}, {1 << 0xA, 0}}
	if got := matchVector(t, 2, []funcsim.Unit{0xA, 0x1}, states...); !slices.Equal(got, []automata.StateID{0}) {
		t.Errorf("active %v, want state 0 only (state 1 must fail the AND: no group-1 row)", got)
	}
	// A different nibble at position 0: nothing matches.
	if got := matchVector(t, 2, []funcsim.Unit{0xB, 0x1}, states...); len(got) != 0 {
		t.Errorf("wrong nibble matched: %v", got)
	}
}

func TestMatchVectorPad(t *testing.T) {
	// Byte 0x53 then a whole padded byte, at rate 4. State 0 does not care
	// about the second byte, state 1 requires 0x6 in its high nibble and
	// state 2 0x7 in its low nibble.
	all := automata.AllUnits(4)
	vec := []funcsim.Unit{0x5, 0x3, funcsim.Pad, funcsim.Pad}
	got := matchVector(t, 4, vec,
		[automata.MaxRate]automata.UnitSet{1 << 0x5, 1 << 0x3, all, all},
		[automata.MaxRate]automata.UnitSet{1 << 0x5, 1 << 0x3, 1 << 0x6, all},
		[automata.MaxRate]automata.UnitSet{1 << 0x5, 1 << 0x3, all, 1 << 0x7})
	if !slices.Equal(got, []automata.StateID{0}) {
		t.Errorf("active %v, want the don't-care state 0 only", got)
	}
}

func TestMachineGetters(t *testing.T) {
	m, _ := build(t, []regex.Pattern{{Expr: `ab`, Code: 1}}, DefaultConfig(2))
	if m.Config().Rate != 2 {
		t.Error("Config getter wrong")
	}
	if m.KernelCycles() != 0 || m.NumPUs() != 1 || m.Placement() == nil {
		t.Error("fresh machine getters wrong")
	}
	m.Run(funcsim.BytesToUnits([]byte("ab"), 4), RunOptions{})
	if m.KernelCycles() != 2 {
		t.Errorf("kernel cycles = %d", m.KernelCycles())
	}
}
