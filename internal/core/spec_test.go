package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// spec is the device model as it was first written, kept as the executable
// specification Machine.Step is held to: one phase after another over
// whole vectors, a callback per set bit, and a dense global-switch table
// built straight from the automaton. It runs on a Machine's storage so the
// two can be compared field by field, but shares none of the machine's
// execution code. Its report half — the region the reporting states are
// written to — is report.Sunder's, held to the same phase-by-phase model in
// that package's spec_test.go, fed this Step's report stream.
type spec struct {
	*Machine
	gx        [][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256
	newActive []bitvec.V256
}

func newSpec(m *Machine) *spec {
	s := &spec{
		Machine:   m.Clone(),
		gx:        make([][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256, m.NumPUs()),
		newActive: make([]bitvec.V256, m.NumPUs()),
	}
	for st := range m.a.States {
		from := m.place.Of[st]
		for _, t := range m.a.States[st].Succ {
			if to := m.place.Of[t]; to.PU != from.PU {
				s.gx[from.PU][from.Col][to.PU%mapping.PUsPerCluster].Set(to.Col)
			}
		}
	}
	return s
}

func (s *spec) step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	m := s.Machine
	npu := m.NumPUs()
	injectAll := (m.kernelCycles*int64(m.cfg.Rate))%int64(m.a.SymbolUnits) == 0
	injectData := m.kernelCycles == 0 && !m.noStartData

	// Phase 1: enables from the previous active vectors (local crossbar +
	// global switches + start enables).
	m.energy.MatchReads += int64(npu)
	for i := 0; i < npu; i++ {
		m.energy.XbarRowReads += int64(m.active[i].Count())
		var enable bitvec.V256
		m.active[i].ForEach(func(col int) {
			enable = enable.Or(*m.img.xbarRow(i, col))
		})
		if injectAll {
			enable = enable.Or(m.img.startAll[i])
		}
		if injectData {
			enable = enable.Or(m.img.startData[i])
		}
		m.enables[i] = enable
	}
	for i := 0; i < npu; i++ {
		base := mapping.ClusterOf(i) * mapping.PUsPerCluster
		m.active[i].ForEach(func(col int) {
			for k := 0; k < mapping.PUsPerCluster; k++ {
				if out := s.gx[i][col][k]; out.Any() && base+k < npu {
					m.enables[base+k] = m.enables[base+k].Or(out)
				}
			}
		})
	}

	// Phase 2: match (Port 2 multi-row activation) and activate.
	for i := 0; i < npu; i++ {
		match := bitvec.V256{}.Not()
		for g, u := range vec {
			if u < 0 {
				match = match.And(m.img.dontCare[g*npu+i])
			} else {
				match = match.And(*m.img.matchRow(i, RowsPerNibble*g+int(u)))
			}
		}
		s.newActive[i] = m.enables[i].And(match)
	}
	copy(m.active, s.newActive)

	// Phase 3: the reporting states (what Port 1 writes to the region).
	for i := 0; i < npu; i++ {
		m.active[i].And(m.img.reportMask[i]).ForEach(func(col int) {
			if st := m.place.StateAt[i][col]; st >= 0 {
				dst = append(dst, automata.StateID(st))
			}
		})
	}
	m.kernelCycles++
	if m.tel != nil {
		m.tel.kernelCycles.Inc()
	}
	return dst
}

// lockstep steps m and its spec over units, one cycle at a time, and fails
// on the first difference: the reporting states returned, the active
// vectors, the cycle and energy counters, and at the end the telemetry
// counters.
func lockstep(t *testing.T, label string, m *Machine, units []funcsim.Unit) {
	t.Helper()
	s := newSpec(m)
	colM, colS := telemetry.NewCollector(), telemetry.NewCollector()
	m.AttachTelemetry(colM)
	s.AttachTelemetry(colS)
	rate := m.cfg.Rate
	var got, want []automata.StateID
	for off := 0; off+rate <= len(units); off += rate {
		got = m.Step(units[off:off+rate], got[:0])
		want = s.step(units[off:off+rate], want[:0])
		c := m.kernelCycles
		switch {
		case !slices.Equal(got, want):
			t.Fatalf("%s cycle %d: reporting states %v, spec %v", label, c, got, want)
		case !slices.Equal(m.active, s.active):
			t.Fatalf("%s cycle %d: active vectors differ", label, c)
		case m.energy != s.energy:
			t.Fatalf("%s cycle %d: energy %+v, spec %+v", label, c, m.energy, s.energy)
		case m.kernelCycles != s.kernelCycles:
			t.Fatalf("%s cycle %d: cycle count differs", label, c)
		}
		if c%61 == 0 && !slices.Equal(m.ActiveStates(nil), s.ActiveStates(nil)) {
			t.Fatalf("%s cycle %d: ActiveStates differ", label, c)
		}
	}
	var bufM, bufS bytes.Buffer
	if err := colM.WriteMetrics(&bufM); err != nil {
		t.Fatal(err)
	}
	if err := colS.WriteMetrics(&bufS); err != nil {
		t.Fatal(err)
	}
	if bufM.String() != bufS.String() {
		t.Fatalf("%s: telemetry counters\n%s\nspec\n%s", label, &bufM, &bufS)
	}
}

// TestStepMatchesSpecWorkloads: same machine, faster — on the generated
// rule sets the repository benchmark runs on the core, at every rate. (The
// reporting strategies are the report model's: report's
// TestModelMatchesSpecWorkloads runs them on this Step's report stream.)
func TestStepMatchesSpecWorkloads(t *testing.T) {
	names := []string{"Snort", "SPM", "EntityResolution"}
	inputLen := 3000
	if testing.Short() {
		names, inputLen = names[:1], 1000
	}
	for _, name := range names {
		for _, rate := range []int{1, 2, 4} {
			m, units := workloadMachine(t, name, DefaultConfig(rate), inputLen)
			lockstep(t, fmt.Sprintf("%s/rate%d", name, rate), m, units)
		}
	}
}

// TestQuickStepMatchesSpec does the same on random automata at random
// rates, where the rare paths are the common ones.
func TestQuickStepMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := []int{1, 2, 4}[rng.Intn(3)]
		ua, err := transform.ToRate(randomByteAutomaton(seed), rate)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfg := DefaultConfig(rate)
		if cfg.ReportColumns, err = mapping.AutoReportColumns(ua, cfg.ReportColumns); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		place, err := mapping.Place(ua, cfg.ReportColumns)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		m, err := Configure(ua, place, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		input := make([]byte, rng.Intn(1500)+1)
		for i := range input {
			input[i] = byte('a' + rng.Intn(12))
		}
		units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), rate)
		lockstep(t, fmt.Sprintf("seed %d", seed), m, units)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
