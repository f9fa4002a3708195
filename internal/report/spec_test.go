package report

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// spec is the report region as it was first written, inside the device
// model's Step, kept as the executable specification Sunder is held to: it
// runs every cycle, quiet ones included — the FIFO drain one cycle at a
// time with a scan over every PU per drained entry — then writes each
// reporting PU's entry one bit at a time. It runs on a Sunder's storage so
// the two can be compared field by field, but shares none of the model's
// execution code.
type spec struct {
	*Sunder
}

func newSpec(tab *core.ReportTable, cfg core.Config) *spec {
	return &spec{NewSunder(tab, cfg)}
}

// step is one device cycle whose reporting states are states (none on a
// quiet cycle).
func (s *spec) step(states []automata.StateID) {
	if s.cfg.FIFO {
		s.drain()
	}
	cycle := s.cycles
	stalled := false
	for i := range s.pus {
		var rep bitvec.V256
		for _, id := range states {
			if loc := s.place.Of[id]; loc.PU == i {
				rep.Set(loc.Col)
			}
		}
		if rep.Any() {
			s.storeReport(i, rep, cycle, &stalled)
		}
	}
	s.cycles++
}

func (s *spec) storeReport(i int, rep bitvec.V256, cycle int64, stalled *bool) {
	u := &s.pus[i]
	mask := int64(1)<<uint(s.cfg.MetadataBits) - 1
	stride := cycle >> uint(s.cfg.MetadataBits)
	for {
		s.ensureSpace(i, stalled)
		cur := max(u.lastStride, 0)
		if cur >= stride {
			break
		}
		chunk := min(stride-cur, mask)
		s.writeEntry(i, bitvec.V256{}, chunk)
		s.energy.ReportWrites++
		u.StrideMarkers++
		u.lastStride = cur + chunk
		if s.tel != nil {
			s.tel.puMarkers.Inc(i)
			s.tel.event(telemetry.EventStrideMarker, cycle, 0, i, u.Occupancy)
		}
	}
	s.writeEntry(i, rep, cycle&mask)
	s.energy.ReportWrites++
	u.ReportEntries++
	u.lastStride = stride
	if s.tel != nil {
		s.tel.puEntries.Inc(i)
		s.tel.occupancy.Observe(int64(u.Occupancy))
		s.tel.event(telemetry.EventReportWrite, cycle, 0, i, u.Occupancy)
	}
}

func (s *spec) ensureSpace(i int, stalled *bool) {
	u := &s.pus[i]
	cfg := s.cfg
	if u.Occupancy < cfg.RegionCapacity() {
		return
	}
	var charged int64
	var kind telemetry.EventKind
	switch {
	case cfg.SummarizeOnFull:
		batches := s.summarize(i)
		s.clearRegion(i)
		u.Summaries++
		kind = telemetry.EventSummarize
		if !*stalled {
			charged = int64(batches * cfg.SummarizeStallCycles)
		}
	case cfg.FIFO:
		u.Occupancy--
		u.Flushes++
		s.energy.ExportedBits += int64(cfg.EntryBits())
		kind = telemetry.EventOverflow
		if !*stalled {
			charged = int64((cfg.EntryBits() + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	default:
		s.clearRegion(i)
		u.Flushes++
		bits := cfg.ReportRows() * core.ColsPerSubarray
		s.energy.ExportedBits += int64(bits)
		kind = telemetry.EventFlush
		if !*stalled {
			charged = int64((bits + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	}
	if charged > 0 {
		s.stallCycles += charged
		u.StallCycles += charged
		*stalled = true
	}
	if s.tel != nil {
		if kind == telemetry.EventSummarize {
			s.tel.puSummaries.Inc(i)
		} else {
			s.tel.puFlushes.Inc(i)
		}
		if charged > 0 {
			s.tel.stallCycles.Add(charged)
			s.tel.puStalls.Add(i, charged)
		}
		s.tel.event(kind, s.cycles, charged, i, u.Occupancy)
	}
}

func (s *spec) drain() {
	s.drainCredit += int64(s.cfg.ExportBitsPerCycle)
	entry := int64(s.cfg.EntryBits())
	for s.drainCredit >= entry {
		target := -1
		for k := 0; k < len(s.pus); k++ {
			if idx := (s.drainRR + k) % len(s.pus); s.pus[idx].Occupancy > 0 {
				target = idx
				break
			}
		}
		if target < 0 {
			if s.drainCredit > entry {
				s.drainCredit = entry
			}
			return
		}
		s.pus[target].Occupancy--
		s.drainCredit -= entry
		s.energy.ExportedBits += entry
		s.drainRR = (target + 1) % len(s.pus)
		if s.tel != nil {
			s.tel.drained.Inc()
		}
	}
}

// entryBit is where bit k of entry slot is stored, by Equation 1 alone.
func (s *spec) entryBit(i, slot, k int) (row *bitvec.V256, bit int) {
	cfg := s.cfg
	return &s.Rows(i)[slot/cfg.EntriesPerRow()], slot%cfg.EntriesPerRow()*cfg.EntryBits() + k
}

func (s *spec) writeEntry(i int, rep bitvec.V256, meta int64) {
	cfg, u := s.cfg, &s.pus[i]
	slot := u.row*cfg.EntriesPerRow() + u.bit/cfg.EntryBits()
	for k := 0; k < cfg.EntryBits(); k++ {
		var on bool
		if j := k - cfg.ReportColumns; j < 0 {
			on = rep.Get(core.ColsPerSubarray - cfg.ReportColumns + k)
		} else if j < 64 {
			on = meta&(1<<uint(j)) != 0
		}
		row, bit := s.entryBit(i, slot, k)
		if on {
			row.Set(bit)
		} else {
			row.Clear(bit)
		}
	}
	slot = (slot + 1) % cfg.RegionCapacity()
	u.row, u.bit = slot/cfg.EntriesPerRow(), slot%cfg.EntriesPerRow()*cfg.EntryBits()
	u.Occupancy++
	u.PeakOccupancy = max(u.PeakOccupancy, u.Occupancy)
}

func (s *spec) clearRegion(i int) {
	u := &s.pus[i]
	rows := s.Rows(i)
	for r := range rows {
		rows[r] = bitvec.V256{}
	}
	u.row, u.bit, u.Occupancy, u.lastStride = 0, 0, 0, -1
}

func (s *spec) summarize(i int) int {
	cfg := s.cfg
	var or bitvec.V256
	batches := 0
	for r := 0; r < cfg.ReportRows(); r += cfg.SummarizeBatchRows {
		for _, row := range s.Rows(i)[r:min(r+cfg.SummarizeBatchRows, cfg.ReportRows())] {
			or = or.Or(row)
		}
		batches++
	}
	for slot := 0; slot < cfg.EntriesPerRow(); slot++ {
		for k := 0; k < cfg.ReportColumns; k++ {
			if or.Get(slot*cfg.EntryBits() + k) {
				s.pus[i].summary.Set(core.ColsPerSubarray - cfg.ReportColumns + k)
			}
		}
	}
	return batches
}

// lockstep runs the stream — stream[c] is cycle c's reporting states, nil
// on a quiet cycle — through the spec cycle by cycle and through a model
// fed only the report cycles, and fails on the first architectural
// difference after a report cycle: every per-PU and aggregate counter,
// the drain state and the energy counters, and every heavyEvery report
// cycles Result, PerPU and the report regions bit for bit. After Finish at
// the run's end the same again, plus the telemetry dumps and the traced
// events.
func lockstep(t *testing.T, label string, tab *core.ReportTable, cfg core.Config, stream [][]automata.StateID, heavyEvery int) {
	t.Helper()
	md, s := NewSunder(tab, cfg), newSpec(tab, cfg)
	colM, colS := telemetry.NewCollector(), telemetry.NewCollector()
	colM.EnableTrace(0)
	colS.EnableTrace(0)
	md.AttachTelemetry(colM)
	s.AttachTelemetry(colS)
	compare := func(c int64, heavy bool) {
		t.Helper()
		switch {
		case !slices.Equal(md.pus, s.pus):
			t.Fatalf("%s cycle %d: per-PU region state\n%+v\nspec\n%+v", label, c, md.pus, s.pus)
		case md.energy != s.energy:
			t.Fatalf("%s cycle %d: energy %+v, spec %+v", label, c, md.energy, s.energy)
		case md.stallCycles != s.stallCycles || md.drainCredit != s.drainCredit || md.drainRR != s.drainRR:
			t.Fatalf("%s cycle %d: stall/drain accounting %d/%d/%d, spec %d/%d/%d", label, c,
				md.stallCycles, md.drainCredit, md.drainRR, s.stallCycles, s.drainCredit, s.drainRR)
		}
		resident := 0
		for i := range md.pus {
			resident += md.pus[i].Occupancy
		}
		if md.resident != resident {
			t.Fatalf("%s cycle %d: resident = %d, regions hold %d", label, c, md.resident, resident)
		}
		if heavy && (md.Result() != s.Result() || !slices.Equal(md.region, s.region) || !slices.Equal(md.PerPU(), s.PerPU())) {
			t.Fatalf("%s cycle %d: Result, report regions or PerPU differ", label, c)
		}
	}
	reports := 0
	for c, states := range stream {
		s.step(states)
		if len(states) == 0 {
			continue
		}
		md.OnReportCycle(int64(c), states)
		reports++
		compare(int64(c), reports%heavyEvery == 0)
	}
	md.Finish(int64(len(stream)))
	compare(int64(len(stream)), true)
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
	if !reflect.DeepEqual(colM.Tracer().Events(), colS.Tracer().Events()) {
		t.Fatalf("%s: traced events differ", label)
	}
}

// machineStream steps m over units and returns its report-state stream.
func machineStream(m *core.Machine, units []funcsim.Unit) [][]automata.StateID {
	rate := m.Config().Rate
	stream := make([][]automata.StateID, 0, len(units)/rate)
	for off := 0; off+rate <= len(units); off += rate {
		stream = append(stream, m.Step(units[off:off+rate], nil))
	}
	return stream
}

// reportingVariants are the report-region strategies the model is compared
// under. The wide-entry ones pack one or two entries to a row (and take the
// bit-by-bit entry path), so a few thousand cycles fill a region — with the
// drain throttled to a bit per cycle, the FIFO's too; the narrow one chains
// stride markers through a 5-bit cycle counter.
var reportingVariants = []struct {
	name string
	mut  func(*core.Config)
}{
	{"flush", func(c *core.Config) {}},
	{"flush-narrow", func(c *core.Config) { c.MetadataBits = 5 }},
	{"flush-wide", func(c *core.Config) { c.MetadataBits = 116 }},
	{"fifo", func(c *core.Config) { c.FIFO = true }},
	{"fifo-throttled-wide", func(c *core.Config) { c.FIFO = true; c.ExportBitsPerCycle = 1; c.MetadataBits = 116 }},
	{"summarize-wide", func(c *core.Config) { c.SummarizeOnFull = true; c.MetadataBits = 116 }},
}

// workloadMachine configures the named generated workload (rule scale
// 0.02, as the repository benchmark builds it) at rate, with the report
// budget the placement needs, and returns its input as units.
func workloadMachine(tb testing.TB, name string, rate, inputLen int) (*core.Machine, []funcsim.Unit) {
	tb.Helper()
	w, err := workload.Get(name, 0.02, inputLen)
	if err != nil {
		tb.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, rate)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.Build(ua, core.DefaultConfig(rate))
	if err != nil {
		tb.Fatal(err)
	}
	return m, funcsim.PadUnits(funcsim.BytesToUnits(w.Input, 4), rate)
}

// TestModelMatchesSpecWorkloads: same region, fed only the report cycles —
// on the generated rule sets the repository benchmark runs on the core,
// at every rate and reporting strategy, with the machine's report stream.
func TestModelMatchesSpecWorkloads(t *testing.T) {
	names := []string{"Snort", "SPM", "EntityResolution"}
	inputLen := 3000
	if testing.Short() {
		names, inputLen = names[:1], 1000
	}
	for _, name := range names {
		for _, rate := range []int{1, 2, 4} {
			m, units := workloadMachine(t, name, rate, inputLen)
			stream := machineStream(m, units)
			for _, v := range reportingVariants {
				cfg := m.Config()
				v.mut(&cfg)
				lockstep(t, fmt.Sprintf("%s/rate%d/%s", name, rate, v.name), m.Reports(), cfg, stream, 61)
			}
		}
	}
}

// randomByteAutomaton builds a random homogeneous NFA.
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

// TestQuickModelMatchesSpec does the same on random automata with random
// narrow metadata widths (stride-marker chains) and tiny regions' worth of
// reports, where the rare paths are the common ones.
func TestQuickModelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := []int{1, 2, 4}[rng.Intn(3)]
		ua, err := transform.ToRate(randomByteAutomaton(seed), rate)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfg := core.DefaultConfig(rate)
		reportingVariants[rng.Intn(len(reportingVariants))].mut(&cfg)
		cfg.MetadataBits = rng.Intn(8) + 3
		if rng.Intn(2) == 0 {
			// A wide entry: few slots per row, so regions fill quickly.
			cfg.MetadataBits = 100 + rng.Intn(100)
		}
		m, err := core.Build(ua, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		input := make([]byte, rng.Intn(1500)+1)
		for i := range input {
			input[i] = byte('a' + rng.Intn(12))
		}
		units := funcsim.PadUnits(funcsim.BytesToUnits(input, 4), rate)
		if int64(len(units)/rate) > cfg.MaxCycles() {
			units = units[:int(cfg.MaxCycles())*rate]
		}
		lockstep(t, fmt.Sprintf("seed %d", seed), m.Reports(), cfg, machineStream(m, units), 61)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDrainCatchUp: the model drains a quiet gap in one step at the next
// report cycle (and at Finish); the spec drains every cycle. They must
// agree after every report cycle — on random gaps, on bursts that fill the
// regions between long quiet stretches, and with the drain throttled so
// the FIFO overflows.
func TestDrainCatchUp(t *testing.T) {
	const npu = 5
	cases := []struct {
		name string
		// gap draws the quiet cycles before the next report cycle.
		gap      func(rng *rand.Rand) int
		exportBW int
	}{
		{"random-gaps", func(rng *rand.Rand) int { return rng.Intn(40) }, 128},
		{"bursts", func(rng *rand.Rand) int {
			if rng.Intn(500) == 0 {
				return 200 + rng.Intn(5000)
			}
			return 0
		}, 128},
		{"throttled-overflow", func(rng *rand.Rand) int { return rng.Intn(3) }, 7},
		{"throttled-gaps", func(rng *rand.Rand) int { return rng.Intn(200) }, 1},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := core.DefaultConfig(4)
			cfg.FIFO, cfg.ExportBitsPerCycle = true, tc.exportBW
			tab := reportColumnsTable(npu, cfg)
			var stream [][]automata.StateID
			for len(stream) < 40000 {
				stream = append(stream, make([][]automata.StateID, tc.gap(rng))...)
				var states []automata.StateID
				for k := rng.Intn(4) + 1; k > 0; k-- {
					states = append(states, automata.StateID(rng.Intn(npu*cfg.ReportColumns)))
				}
				slices.Sort(states)
				stream = append(stream, slices.Compact(states))
			}
			// A quiet tail: Finish drains it.
			stream = append(stream, make([][]automata.StateID, rng.Intn(3000))...)
			lockstep(t, fmt.Sprintf("%s/seed%d", tc.name, seed), tab, cfg, stream, 61)
		}
	}
}

// reportColumnsTable is the report table of a synthetic automaton with a
// reporting state in every report column of npu PUs and nothing else:
// state k*m+j sits in PU k's report column j.
func reportColumnsTable(npu int, cfg core.Config) *core.ReportTable {
	m := cfg.ReportColumns
	a := automata.NewUnitAutomaton(4, cfg.Rate, 2)
	place := &mapping.Placement{ReportColumns: m, NumPUs: npu, StateAt: make([][]int32, npu)}
	for i := range place.StateAt {
		place.StateAt[i] = make([]int32, core.ColsPerSubarray)
		for c := range place.StateAt[i] {
			place.StateAt[i][c] = -1
		}
		for k := 0; k < m; k++ {
			col := core.ColsPerSubarray - m + k
			id := a.AddState(automata.UnitState{Reports: []automata.Report{{Code: int32(len(place.Of))}}})
			place.StateAt[i][col] = int32(id)
			place.Of = append(place.Of, mapping.Loc{PU: i, Col: col})
		}
	}
	return core.NewReportTable(a, place)
}

// TestDrainManyPUs: the model finds the FIFO drain's next region through a
// bitset of occupied PUs; the spec scans every PU, from the round-robin
// pointer on, for each entry it drains — the drain's reference. With 131
// PUs the bitset spans three words. Random report cycles over all of them
// must agree with the spec after every report cycle, Result, PerPU and the
// report regions included, and at Finish: under FIFO with a drain that
// keeps up, a throttled one and one throttled until regions overflow, and
// under flush and summarize. The narrow variants stamp 4-bit cycles, so
// stride markers chain through the quiet gaps; the wide ones pack two
// entries to a row, and a few hot PUs, one in each word, fill their regions.
func TestDrainManyPUs(t *testing.T) {
	const npu = 131
	hot := []int{3, 64, 70, 127, 130}
	variants := []struct {
		name   string
		mut    func(*core.Config)
		maxGap int
	}{
		{"fifo", func(c *core.Config) { c.FIFO = true; c.MetadataBits = 4 }, 24},
		{"fifo-throttled", func(c *core.Config) { c.FIFO = true; c.MetadataBits = 4; c.ExportBitsPerCycle = 3 }, 24},
		{"fifo-overflow-wide", func(c *core.Config) { c.FIFO = true; c.MetadataBits = 100; c.ExportBitsPerCycle = 1 }, 2},
		{"flush", func(c *core.Config) { c.MetadataBits = 4 }, 24},
		{"flush-wide", func(c *core.Config) { c.MetadataBits = 100 }, 2},
		{"summarize-wide", func(c *core.Config) { c.SummarizeOnFull = true; c.MetadataBits = 100 }, 2},
	}
	for _, v := range variants {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := core.DefaultConfig(4)
			v.mut(&cfg)
			tab := reportColumnsTable(npu, cfg)
			var stream [][]automata.StateID
			for int64(len(stream)) < min(cfg.MaxCycles()-64, 3000) {
				stream = append(stream, make([][]automata.StateID, rng.Intn(v.maxGap+1))...)
				var states []automata.StateID
				for k := rng.Intn(8) + 1; k > 0; k-- {
					pu := rng.Intn(npu)
					if rng.Intn(2) == 0 {
						pu = hot[rng.Intn(len(hot))]
					}
					states = append(states, automata.StateID(pu*cfg.ReportColumns+rng.Intn(cfg.ReportColumns)))
				}
				slices.Sort(states)
				stream = append(stream, slices.Compact(states))
			}
			stream = append(stream, make([][]automata.StateID, rng.Intn(40))...)
			lockstep(t, fmt.Sprintf("%s/seed%d", v.name, seed), tab, cfg, stream, 1)
		}
	}
}
