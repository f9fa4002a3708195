package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
)

// randomByteAutomaton builds a random homogeneous NFA (mirrors the
// transform package's fuzz helper).
func randomByteAutomaton(seed int64) *automata.Automaton {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(10) + 2
	a := automata.NewAutomaton()
	for i := 0; i < n; i++ {
		var match [4]uint64
		for k := 0; k < rng.Intn(6)+1; k++ {
			b := int('a') + rng.Intn(10)
			match[b/64] |= 1 << (uint(b) % 64)
		}
		s := automata.State{Match: match}
		if i == 0 || rng.Intn(4) == 0 {
			if rng.Intn(3) == 0 {
				s.Start = automata.StartOfData
			} else {
				s.Start = automata.StartAllInput
			}
		}
		if rng.Intn(3) == 0 {
			s.Report = true
			s.ReportCode = int32(i)
		}
		a.AddState(s)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < rng.Intn(3); k++ {
			a.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
	}
	a.Normalize()
	if a.NumReportStates() == 0 {
		a.States[n-1].Report = true
	}
	return a
}

// TestQuickMachineMatchesFuncsim fuzzes the machine against the functional
// simulator with random automata, random rates and random inputs — the
// property the whole architectural model rests on.
func TestQuickMachineMatchesFuncsim(t *testing.T) {
	f := func(seed int64) bool {
		a := randomByteAutomaton(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xc0de))
		rate := []int{1, 2, 4}[rng.Intn(3)]
		ua, err := transform.ToRate(a, rate)
		if err != nil {
			t.Logf("seed %d: transform: %v", seed, err)
			return false
		}
		cfg := DefaultConfig(rate)
		cfg.FIFO = rng.Intn(2) == 0
		m, err := Build(ua, cfg)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		sim := funcsim.NewUnitSimulator(ua)
		for trial := 0; trial < 3; trial++ {
			n := rng.Intn(60) + 1
			input := make([]byte, n)
			for i := range input {
				input[i] = byte('a' + rng.Intn(12))
			}
			units := funcsim.BytesToUnits(input, 4)
			want := sim.Run(units, funcsim.Options{RecordEvents: true})
			got := m.Run(units, RunOptions{RecordEvents: true})
			if !eventsEqual(want.Events, got.Events) {
				t.Logf("seed %d trial %d input %q: machine %v != funcsim %v",
					seed, trial, input, got.Events, want.Events)
				return false
			}
			sim.Reset()
			m.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
