package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/transform"
)

// configured places ua under the report budget it needs and configures a
// machine for it.
func configured(t *testing.T, ua *automata.UnitAutomaton) *Machine {
	t.Helper()
	cfg := DefaultConfig(ua.Rate)
	var err error
	if cfg.ReportColumns, err = mapping.AutoReportColumns(ua, cfg.ReportColumns); err != nil {
		t.Fatal(err)
	}
	place, err := mapping.Place(ua, cfg.ReportColumns)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Configure(ua, place, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleLockstep steps m and the functional simulator over units (padded to
// the rate), one cycle at a time, and fails on the first cycle whose
// reporting states or active states differ as sets: the machine lists them
// in placement order, the oracle in state order. It returns the reporting
// states seen.
func oracleLockstep(t *testing.T, label string, m *Machine, ua *automata.UnitAutomaton, units []funcsim.Unit) (reports int) {
	t.Helper()
	units = funcsim.PadUnits(units, ua.Rate)
	sim := funcsim.NewUnitSimulator(ua)
	var got, want, active []automata.StateID
	for off := 0; off < len(units); off += ua.Rate {
		vec := units[off : off+ua.Rate]
		got = m.Step(vec, got[:0])
		want = sim.Step(vec, want[:0])
		reports += len(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s cycle %d: reporting states %v, funcsim %v", label, sim.Cycle()-1, got, want)
		}
		active = m.ActiveStates(active[:0])
		slices.Sort(active)
		bits := sim.Active().Bits()
		if !slices.EqualFunc(active, bits, func(s automata.StateID, i int) bool { return int(s) == i }) {
			t.Fatalf("%s cycle %d: active states %v, funcsim %v", label, sim.Cycle()-1, active, bits)
		}
	}
	return reports
}

// wideAutomaton is exp.WideStudy's shape, smaller: subsequence rules
// item .* item .* trigger over a sparse 16-bit item alphabet, one of them
// anchored at the start of data, with the stream they run on.
func wideAutomaton(rng *rand.Rand, patterns, items, symbols int) (*automata.WideAutomaton, []uint16) {
	universe := make([]uint16, 12)
	for i := range universe {
		universe[i] = uint16(0x4000 + rng.Intn(1<<14))
	}
	const trigger uint16 = 0x3B3B
	anyItem := append(slices.Clone(universe), trigger)
	wa := automata.NewWideAutomaton()
	for p := 0; p < patterns; p++ {
		var prevItem, prevAny automata.StateID = -1, -1
		for k := 0; k < items; k++ {
			start := automata.StartNone
			if k == 0 {
				start = automata.StartAllInput
				if p == 0 {
					start = automata.StartOfData
				}
			}
			item := wa.AddState(automata.WideState{Match: []uint16{universe[rng.Intn(len(universe))]}, Start: start})
			if prevItem >= 0 {
				wa.AddEdge(prevItem, item)
				wa.AddEdge(prevAny, item)
			}
			gap := wa.AddState(automata.WideState{Match: anyItem})
			wa.AddEdge(item, gap)
			wa.AddEdge(gap, gap)
			prevItem, prevAny = item, gap
		}
		end := wa.AddState(automata.WideState{Match: []uint16{trigger}, Report: true, ReportCode: int32(p + 1)})
		wa.AddEdge(prevItem, end)
		wa.AddEdge(prevAny, end)
	}
	wa.Normalize()
	in := make([]uint16, symbols)
	for i := range in {
		if i%7 == 6 {
			in[i] = trigger
		} else {
			in[i] = universe[rng.Intn(len(universe))]
		}
	}
	return wa, in
}

// TestMachineLockstepFuncsim holds Step to the functional simulator cycle by
// cycle at every rate: on 16-bit wide automata, whose cycles at rates 2 and
// 1 split a symbol and so do not inject the unanchored starts, and on random
// byte automata, whose rate-1 cycles alternate.
func TestMachineLockstepFuncsim(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 4; trial++ {
		wa, symbols := wideAutomaton(rng, 3+trial, 2+trial%3, 300)
		for _, rate := range []int{1, 2, 4} {
			ua, err := transform.WideToRate(wa, rate)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("wide trial %d rate %d", trial, rate)
			if oracleLockstep(t, label, configured(t, ua), ua, funcsim.SymbolsToUnits(symbols)) == 0 {
				t.Fatalf("%s: no rule matched; the lockstep proved nothing", label)
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, rate := range []int{1, 2, 4} {
			ua, err := transform.ToRate(randomByteAutomaton(seed), rate)
			if err != nil {
				t.Fatal(err)
			}
			input := make([]byte, 101+2*rng.Intn(100)) // odd: rate 4 ends on a pad
			for i := range input {
				input[i] = byte('a' + rng.Intn(12))
			}
			label := fmt.Sprintf("byte seed %d rate %d", seed, rate)
			oracleLockstep(t, label, configured(t, ua), ua, funcsim.BytesToUnits(input, 4))
		}
	}
}
