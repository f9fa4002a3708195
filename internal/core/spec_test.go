package core

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
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// spec is the device model as it was first written, kept as the executable
// specification Machine.Step is held to: one phase after another over
// whole vectors, a callback per set bit, report entries written one bit at
// a time, a scan over every PU per drained entry, and a dense global-switch
// table built straight from the automaton. It runs on a Machine's storage
// so the two can be compared field by field, but shares none of the
// machine's execution code.
type spec struct {
	*Machine
	gx        [][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256
	newActive []bitvec.V256
}

func newSpec(m *Machine) *spec {
	s := &spec{
		Machine:   m.Clone(),
		gx:        make([][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256, len(m.pus)),
		newActive: make([]bitvec.V256, len(m.pus)),
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
	if m.cfg.FIFO {
		s.drain()
	}
	injectAll := (m.kernelCycles*int64(m.cfg.Rate))%int64(m.a.SymbolUnits) == 0
	injectData := m.kernelCycles == 0 && !m.noStartData

	// Phase 1: enables from the previous active vectors (local crossbar +
	// global switches + start enables).
	m.energy.MatchReads += int64(len(m.pus))
	for i := range m.pus {
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
	for i := range m.pus {
		base := mapping.ClusterOf(i) * mapping.PUsPerCluster
		m.active[i].ForEach(func(col int) {
			for k := 0; k < mapping.PUsPerCluster; k++ {
				if out := s.gx[i][col][k]; out.Any() && base+k < len(m.pus) {
					m.enables[base+k] = m.enables[base+k].Or(out)
				}
			}
		})
	}

	// Phase 2: match (Port 2 multi-row activation) and activate.
	for i := range m.pus {
		match := bitvec.V256{}.Not()
		for g, u := range vec {
			if u < 0 {
				match = match.And(m.img.dontCare[g*len(m.pus)+i])
			} else {
				match = match.And(*m.img.matchRow(i, RowsPerNibble*g+int(u)))
			}
		}
		s.newActive[i] = m.enables[i].And(match)
	}
	copy(m.active, s.newActive)

	// Phase 3: reporting (Port 1).
	stalled := false
	cycle := m.kernelCycles
	for i := range m.pus {
		rep := m.active[i].And(m.img.reportMask[i])
		if !rep.Any() {
			continue
		}
		s.storeReport(i, rep, cycle, &stalled)
		rep.ForEach(func(col int) {
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

func (s *spec) storeReport(i int, rep bitvec.V256, cycle int64, stalled *bool) {
	m, u := s.Machine, &s.pus[i]
	mask := int64(1)<<uint(m.cfg.MetadataBits) - 1
	stride := cycle >> uint(m.cfg.MetadataBits)
	for {
		s.ensureSpace(i, stalled)
		cur := max(u.lastStride, 0)
		if cur >= stride {
			break
		}
		chunk := min(stride-cur, mask)
		s.writeEntry(i, bitvec.V256{}, chunk)
		m.energy.ReportWrites++
		u.strideMarkers++
		u.lastStride = cur + chunk
		if m.tel != nil {
			m.tel.puMarkers.Inc(i)
			m.tel.event(telemetry.EventStrideMarker, cycle, 0, i, u.occupied)
		}
	}
	s.writeEntry(i, rep, cycle&mask)
	m.energy.ReportWrites++
	u.reportEntries++
	u.lastStride = stride
	if m.tel != nil {
		m.tel.puEntries.Inc(i)
		m.tel.occupancy.Observe(int64(u.occupied))
		m.tel.event(telemetry.EventReportWrite, cycle, 0, i, u.occupied)
	}
}

func (s *spec) ensureSpace(i int, stalled *bool) {
	m, u := s.Machine, &s.pus[i]
	cfg := m.cfg
	if u.occupied < cfg.RegionCapacity() {
		return
	}
	var charged int64
	var kind telemetry.EventKind
	switch {
	case cfg.SummarizeOnFull:
		batches := s.summarize(i)
		s.clearRegion(i)
		u.summaries++
		kind = telemetry.EventSummarize
		if !*stalled {
			charged = int64(batches * cfg.SummarizeStallCycles)
		}
	case cfg.FIFO:
		u.occupied--
		u.flushes++
		m.energy.ExportedBits += int64(cfg.EntryBits())
		kind = telemetry.EventOverflow
		if !*stalled {
			charged = int64((cfg.EntryBits() + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	default:
		s.clearRegion(i)
		u.flushes++
		bits := cfg.ReportRows() * ColsPerSubarray
		m.energy.ExportedBits += int64(bits)
		kind = telemetry.EventFlush
		if !*stalled {
			charged = int64((bits + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	}
	if charged > 0 {
		m.stallCycles += charged
		u.stallCycles += charged
		*stalled = true
	}
	if m.tel != nil {
		if kind == telemetry.EventSummarize {
			m.tel.puSummaries.Inc(i)
		} else {
			m.tel.puFlushes.Inc(i)
		}
		if charged > 0 {
			m.tel.stallCycles.Add(charged)
			m.tel.puStalls.Add(i, charged)
		}
		m.tel.event(kind, m.kernelCycles, charged, i, u.occupied)
	}
}

func (s *spec) drain() {
	m := s.Machine
	m.drainCredit += int64(m.cfg.ExportBitsPerCycle)
	entry := int64(m.cfg.EntryBits())
	for m.drainCredit >= entry {
		target := -1
		for k := 0; k < len(m.pus); k++ {
			if idx := (m.drainRR + k) % len(m.pus); m.pus[idx].occupied > 0 {
				target = idx
				break
			}
		}
		if target < 0 {
			if m.drainCredit > entry {
				m.drainCredit = entry
			}
			return
		}
		m.pus[target].occupied--
		m.drainCredit -= entry
		m.energy.ExportedBits += entry
		m.drainRR = (target + 1) % len(m.pus)
		if m.tel != nil {
			m.tel.drained.Inc()
		}
	}
}

// entryBit is where bit k of entry slot is stored, by Equation 1 alone.
func (s *spec) entryBit(i, slot, k int) (row *bitvec.V256, bit int) {
	cfg := s.cfg
	return &s.regionOf(i)[slot/cfg.EntriesPerRow()], slot%cfg.EntriesPerRow()*cfg.EntryBits() + k
}

func (s *spec) writeEntry(i int, rep bitvec.V256, meta int64) {
	cfg, u := s.cfg, &s.pus[i]
	for k := 0; k < cfg.EntryBits(); k++ {
		var on bool
		if j := k - cfg.ReportColumns; j < 0 {
			on = rep.Get(ColsPerSubarray - cfg.ReportColumns + k)
		} else if j < 64 {
			on = meta&(1<<uint(j)) != 0
		}
		row, bit := s.entryBit(i, u.counter, k)
		if on {
			row.Set(bit)
		} else {
			row.Clear(bit)
		}
	}
	u.counter = (u.counter + 1) % cfg.RegionCapacity()
	u.occupied++
	u.peakOccupied = max(u.peakOccupied, u.occupied)
}

func (s *spec) clearRegion(i int) {
	u := &s.pus[i]
	for r := range s.regionOf(i) {
		s.regionOf(i)[r] = bitvec.V256{}
	}
	u.counter, u.occupied, u.lastStride = 0, 0, -1
}

func (s *spec) summarize(i int) int {
	cfg := s.cfg
	var or bitvec.V256
	batches := 0
	for r := 0; r < cfg.ReportRows(); r += cfg.SummarizeBatchRows {
		for _, row := range s.regionOf(i)[r:min(r+cfg.SummarizeBatchRows, cfg.ReportRows())] {
			or = or.Or(row)
		}
		batches++
	}
	for slot := 0; slot < cfg.EntriesPerRow(); slot++ {
		for k := 0; k < cfg.ReportColumns; k++ {
			if or.Get(slot*cfg.EntryBits() + k) {
				s.pus[i].summary.Set(ColsPerSubarray - cfg.ReportColumns + k)
			}
		}
	}
	return batches
}

// lockstep steps m and its spec over units, one cycle at a time, and fails
// on the first architectural difference: the reporting states returned,
// the active vectors, every per-PU and aggregate counter, the report
// regions bit for bit, and at the end the telemetry counters and the
// traced events.
func lockstep(t *testing.T, label string, m *Machine, units []funcsim.Unit) {
	t.Helper()
	s := newSpec(m)
	colM, colS := telemetry.NewCollector(), telemetry.NewCollector()
	colM.EnableTrace(0)
	colS.EnableTrace(0)
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
		case !slices.Equal(m.pus, s.pus):
			t.Fatalf("%s cycle %d: per-PU region state\n%+v\nspec\n%+v", label, c, m.pus, s.pus)
		case m.energy != s.energy:
			t.Fatalf("%s cycle %d: energy %+v, spec %+v", label, c, m.energy, s.energy)
		case m.kernelCycles != s.kernelCycles || m.stallCycles != s.stallCycles ||
			m.drainCredit != s.drainCredit || m.drainRR != s.drainRR:
			t.Fatalf("%s cycle %d: cycle/drain accounting differs", label, c)
		}
		resident := 0
		for i := range m.pus {
			resident += m.pus[i].occupied
		}
		if m.resident != resident {
			t.Fatalf("%s cycle %d: resident = %d, regions hold %d", label, c, m.resident, resident)
		}
		if c%61 != 0 && off+2*rate <= len(units) {
			continue
		}
		// The heavier views, on a stride and after the last cycle.
		if !slices.Equal(m.region, s.region) {
			t.Fatalf("%s cycle %d: report regions differ", label, c)
		}
		if !slices.Equal(m.ActiveStates(nil), s.ActiveStates(nil)) || !slices.Equal(m.PerPU(), s.PerPU()) {
			t.Fatalf("%s cycle %d: ActiveStates/PerPU differ", label, c)
		}
	}
	if m.StallCycles() != s.StallCycles() || m.Flushes() != s.Flushes() || m.Summaries() != s.Summaries() {
		t.Fatalf("%s: stalls/flushes/summaries %d/%d/%d, spec %d/%d/%d", label,
			m.StallCycles(), m.Flushes(), m.Summaries(), s.StallCycles(), s.Flushes(), s.Summaries())
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
	if !reflect.DeepEqual(colM.Tracer().Events(), colS.Tracer().Events()) {
		t.Fatalf("%s: traced events differ", label)
	}
}

// reportingVariants are the report-region strategies a machine is compared
// under. The wide-entry ones pack one or two entries to a row (and take the
// bit-by-bit entry path), so a few thousand cycles fill a region — with the
// drain throttled to a bit per cycle, the FIFO's too; the narrow one chains
// stride markers through a 5-bit cycle counter.
var reportingVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"flush", func(c *Config) {}},
	{"flush-narrow", func(c *Config) { c.MetadataBits = 5 }},
	{"flush-wide", func(c *Config) { c.MetadataBits = 116 }},
	{"fifo", func(c *Config) { c.FIFO = true }},
	{"fifo-throttled-wide", func(c *Config) { c.FIFO = true; c.ExportBitsPerCycle = 1; c.MetadataBits = 116 }},
	{"summarize-wide", func(c *Config) { c.SummarizeOnFull = true; c.MetadataBits = 116 }},
}

// TestStepMatchesSpecWorkloads: same machine, faster — on the generated
// rule sets the repository benchmark runs on the core, at every rate and
// reporting strategy.
func TestStepMatchesSpecWorkloads(t *testing.T) {
	names := []string{"Snort", "SPM", "EntityResolution"}
	inputLen := 3000
	if testing.Short() {
		names, inputLen = names[:1], 1000
	}
	for _, name := range names {
		for _, rate := range []int{1, 2, 4} {
			for _, v := range reportingVariants {
				cfg := DefaultConfig(rate)
				v.mut(&cfg)
				m, units := workloadMachine(t, name, cfg, inputLen)
				lockstep(t, fmt.Sprintf("%s/rate%d/%s", name, rate, v.name), m, units)
			}
		}
	}
}

// TestQuickStepMatchesSpec does the same on random automata with random
// narrow metadata widths (stride-marker chains) and tiny regions' worth of
// reports, where the rare paths are the common ones.
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
		reportingVariants[rng.Intn(len(reportingVariants))].mut(&cfg)
		cfg.MetadataBits = rng.Intn(8) + 3
		if cfg.ReportColumns, err = mapping.AutoReportColumns(ua, cfg.ReportColumns); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if rng.Intn(2) == 0 {
			// A wide entry: few slots per row, so regions fill quickly.
			cfg.MetadataBits = 100 + rng.Intn(100)
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
		if int64(len(units)/rate) > cfg.MaxCycles() {
			units = units[:int(cfg.MaxCycles())*rate]
		}
		lockstep(t, fmt.Sprintf("seed %d", seed), m, units)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
