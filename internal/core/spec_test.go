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
// specification Machine.Step is held to: the subarray tables — match rows,
// don't-care rows, start and report masks, local crossbars and global
// switches — programmed from the automaton and the placement, then stepped
// one phase after another over whole per-PU vectors, a callback per set
// bit. It shares no table and no execution code with the machine, only the
// counters of a clone, so that the two can be compared field by field; its
// agreement with Step is the evidence that the placement-routed device and
// the plan the machine steps on are one device. Its report half — the
// region the reporting states are written to — is report.Sunder's, held to
// the same phase-by-phase model in that package's spec_test.go, fed this
// Step's report stream.
type spec struct {
	*Machine
	npu int
	// match[(16g+v)*npu+i] is match row 16g+v of PU i: the columns whose
	// state accepts nibble v at vector position g; dontCare[g*npu+i] the
	// columns whose whole group g is set, the only ones a Pad unit matches.
	match, dontCare []bitvec.V256
	// startAll, startData and reportMask are per PU; xbar[i][src] is PU i's
	// local crossbar row src, and gx[i][src][k] the columns of PU k of the
	// cluster that source column src of PU i enables through the global
	// switch.
	startAll, startData, reportMask []bitvec.V256
	xbar                            [][ColsPerSubarray]bitvec.V256
	gx                              [][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256
	active, enables, newActive      []bitvec.V256
}

func newSpec(m *Machine) *spec {
	npu := m.NumPUs()
	vecs := func(n int) []bitvec.V256 { return make([]bitvec.V256, n) }
	s := &spec{
		Machine: m.Clone(), npu: npu,
		match: vecs(m.cfg.MatchRows() * npu), dontCare: vecs(m.cfg.Rate * npu),
		startAll: vecs(npu), startData: vecs(npu), reportMask: vecs(npu),
		xbar:   make([][ColsPerSubarray]bitvec.V256, npu),
		gx:     make([][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256, npu),
		active: vecs(npu), enables: vecs(npu), newActive: vecs(npu),
	}
	s.noStartData = m.noStartData
	all := automata.AllUnits(4)
	for st := range m.a.States {
		state, from := &m.a.States[st], m.place.Of[st]
		for g := 0; g < m.cfg.Rate; g++ {
			for v := 0; v < RowsPerNibble; v++ {
				if state.Match[g].Has(v) {
					s.match[(RowsPerNibble*g+v)*npu+from.PU].Set(from.Col)
				}
			}
			if state.Match[g] == all {
				s.dontCare[g*npu+from.PU].Set(from.Col)
			}
		}
		switch state.Start {
		case automata.StartAllInput:
			s.startAll[from.PU].Set(from.Col)
		case automata.StartOfData:
			s.startData[from.PU].Set(from.Col)
		}
		if len(state.Reports) > 0 {
			s.reportMask[from.PU].Set(from.Col)
		}
		for _, t := range state.Succ {
			if to := m.place.Of[t]; to.PU == from.PU {
				s.xbar[from.PU][from.Col].Set(to.Col)
			} else {
				s.gx[from.PU][from.Col][to.PU%mapping.PUsPerCluster].Set(to.Col)
			}
		}
	}
	return s
}

func (s *spec) step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	m, npu := s.Machine, s.npu
	injectAll := (m.kernelCycles*int64(m.cfg.Rate))%int64(m.a.SymbolUnits) == 0
	injectData := m.kernelCycles == 0 && !m.noStartData

	// Phase 1: enables from the previous active vectors (local crossbar +
	// global switches + start enables).
	m.energy.MatchReads += int64(npu)
	for i := 0; i < npu; i++ {
		m.energy.XbarRowReads += int64(s.active[i].Count())
		var enable bitvec.V256
		s.active[i].ForEach(func(col int) {
			enable = enable.Or(s.xbar[i][col])
		})
		if injectAll {
			enable = enable.Or(s.startAll[i])
		}
		if injectData {
			enable = enable.Or(s.startData[i])
		}
		s.enables[i] = enable
	}
	for i := 0; i < npu; i++ {
		base := mapping.ClusterOf(i) * mapping.PUsPerCluster
		s.active[i].ForEach(func(col int) {
			for k := 0; k < mapping.PUsPerCluster; k++ {
				if out := s.gx[i][col][k]; out.Any() && base+k < npu {
					s.enables[base+k] = s.enables[base+k].Or(out)
				}
			}
		})
	}

	// Phase 2: match (Port 2 multi-row activation) and activate.
	for i := 0; i < npu; i++ {
		match := bitvec.V256{}.Not()
		for g, u := range vec {
			if u < 0 {
				match = match.And(s.dontCare[g*npu+i])
			} else {
				match = match.And(s.match[(RowsPerNibble*g+int(u))*npu+i])
			}
		}
		s.newActive[i] = s.enables[i].And(match)
	}
	copy(s.active, s.newActive)

	// Phase 3: the reporting states (what Port 1 writes to the region).
	for i := 0; i < npu; i++ {
		s.active[i].And(s.reportMask[i]).ForEach(func(col int) {
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

// activeStates appends the states of the spec's active columns, PU by PU.
func (s *spec) activeStates(dst []automata.StateID) []automata.StateID {
	for i, a := range s.active {
		dst = AppendStates(dst, s.place.StateAt[i], a)
	}
	return dst
}

// lockstep steps m and its spec over units, one cycle at a time, and fails
// on the first difference: the reporting states returned, the active
// states, the cycle and energy counters, and at the end the telemetry
// counters.
func lockstep(t *testing.T, label string, m *Machine, units []funcsim.Unit) {
	t.Helper()
	s := newSpec(m)
	colM, colS := telemetry.NewCollector(), telemetry.NewCollector()
	m.AttachTelemetry(colM)
	s.AttachTelemetry(colS)
	rate := m.cfg.Rate
	var got, want, gotActive, wantActive []automata.StateID
	for off := 0; off+rate <= len(units); off += rate {
		got = m.Step(units[off:off+rate], got[:0])
		want = s.step(units[off:off+rate], want[:0])
		gotActive, wantActive = m.ActiveStates(gotActive[:0]), s.activeStates(wantActive[:0])
		c := m.kernelCycles
		switch {
		case !slices.Equal(got, want):
			t.Fatalf("%s cycle %d: reporting states %v, spec %v", label, c, got, want)
		case !slices.Equal(gotActive, wantActive):
			t.Fatalf("%s cycle %d: active states %v, spec %v", label, c, gotActive, wantActive)
		case m.energy != s.energy:
			t.Fatalf("%s cycle %d: energy %+v, spec %+v", label, c, m.energy, s.energy)
		case m.kernelCycles != s.kernelCycles:
			t.Fatalf("%s cycle %d: cycle count differs", label, c)
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
		m.SuppressStartOfData(rng.Intn(4) == 0) // a shard worker's mid-stream replay
		lockstep(t, fmt.Sprintf("seed %d", seed), m, units)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
