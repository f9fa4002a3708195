package core

import (
	"math/rand"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
	"sunder/internal/transform"
)

// build compiles patterns, transforms to the rate, places, and configures a
// machine.
func build(t *testing.T, patterns []regex.Pattern, cfg Config) (*Machine, *automata.UnitAutomaton) {
	t.Helper()
	a, err := regex.CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transform.ToRate(a, cfg.Rate)
	if err != nil {
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
	return m, ua
}

func eventsEqual(a, b []funcsim.ReportEvent) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct {
		unit   int64
		origin int32
		code   int32
	}
	count := map[key]int{}
	for _, e := range a {
		count[key{e.Unit, e.Origin, e.Code}]++
	}
	for _, e := range b {
		count[key{e.Unit, e.Origin, e.Code}]--
	}
	for _, v := range count {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestMachineMatchesFuncsim is the central integration invariant: the
// architectural simulator produces exactly the functional simulator's
// reports, at every rate, on varied pattern sets and random inputs.
func TestMachineMatchesFuncsim(t *testing.T) {
	sets := [][]regex.Pattern{
		{{Expr: `abc`, Code: 1}},
		{{Expr: `a.*b`, Code: 1}},
		{{Expr: `ab|cd`, Code: 1}, {Expr: `bc+d`, Code: 2}},
		{{Expr: `^ab`, Code: 1}, {Expr: `a[bc]{2}`, Code: 2}, {Expr: `ddd`, Code: 3}},
		{{Expr: `aa`, Code: 1}, {Expr: `aaa`, Code: 2}},
	}
	rng := rand.New(rand.NewSource(11))
	for si, set := range sets {
		for _, rate := range []int{1, 2, 4} {
			cfg := DefaultConfig(rate)
			m, ua := build(t, set, cfg)
			sim := funcsim.NewUnitSimulator(ua)
			for trial := 0; trial < 5; trial++ {
				n := rng.Intn(120) + 1
				input := make([]byte, n)
				for i := range input {
					input[i] = byte("abcd"[rng.Intn(4)])
				}
				units := funcsim.BytesToUnits(input, 4)
				want := sim.Run(units, funcsim.Options{RecordEvents: true})
				got := m.Run(units, RunOptions{RecordEvents: true})
				if !eventsEqual(want.Events, got.Events) {
					t.Fatalf("set %d rate %d input %q: machine events %v != funcsim %v",
						si, rate, input, got.Events, want.Events)
				}
				if got.Reports != want.Reports || got.ReportCycles != want.ReportCycles {
					t.Fatalf("set %d rate %d: stats mismatch", si, rate)
				}
				sim.Reset()
				m.Reset()
			}
		}
	}
}

// TestMachineMultiPU forces a multi-PU placement and checks cross-PU
// propagation through the global switches.
func TestMachineMultiPU(t *testing.T) {
	// One long chain spanning more than 256 nibble states.
	long := "abcdefghijklmnopqrstuvwxyz"
	expr := long + long + long + long + long + long
	cfg := DefaultConfig(1)
	m, ua := build(t, []regex.Pattern{{Expr: expr, Code: 1}}, cfg)
	if m.NumPUs() < 2 {
		t.Fatalf("expected multi-PU placement, got %d", m.NumPUs())
	}
	input := []byte("xx" + expr + "yy" + expr)
	units := funcsim.BytesToUnits(input, 4)
	want := funcsim.NewUnitSimulator(ua).Run(units, funcsim.Options{RecordEvents: true})
	got := m.Run(units, RunOptions{RecordEvents: true})
	if want.Reports != 2 || !eventsEqual(want.Events, got.Events) {
		t.Fatalf("cross-PU run: funcsim %d reports, machine %d", want.Reports, got.Reports)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Rate: 3, ReportColumns: 12, MetadataBits: 20, ExportBitsPerCycle: 128, SummarizeBatchRows: 16},
		{Rate: 2, ReportColumns: 0, MetadataBits: 20, ExportBitsPerCycle: 128, SummarizeBatchRows: 16},
		{Rate: 2, ReportColumns: 12, MetadataBits: 300, ExportBitsPerCycle: 128, SummarizeBatchRows: 16},
		{Rate: 2, ReportColumns: 12, MetadataBits: 20, ExportBitsPerCycle: 0, SummarizeBatchRows: 16},
		{Rate: 2, ReportColumns: 12, MetadataBits: 20, ExportBitsPerCycle: 128, SummarizeBatchRows: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.MatchRows() != 64 || cfg.ReportRows() != 192 {
		t.Errorf("rows: %d/%d", cfg.MatchRows(), cfg.ReportRows())
	}
	if cfg.EntryBits() != 32 || cfg.EntriesPerRow() != 8 {
		t.Errorf("entry: %d bits, %d per row", cfg.EntryBits(), cfg.EntriesPerRow())
	}
	if cfg.RegionCapacity() != 1536 {
		t.Errorf("capacity = %d", cfg.RegionCapacity())
	}
	// Equation 1 example from the paper: 192 report rows → 8 bits, 8
	// entries/row → 3 bits... the paper's example uses m=8, n=24 → 8+8.
	ex := Config{Rate: 4, ReportColumns: 8, MetadataBits: 24, ExportBitsPerCycle: 128, SummarizeBatchRows: 16}
	if ex.LocalCounterBits() != 8+3 {
		t.Errorf("counter bits = %d", ex.LocalCounterBits())
	}
	one := DefaultConfig(1)
	if one.MatchRows() != 16 || one.ReportRows() != 240 {
		t.Errorf("rate-1 rows: %d/%d", one.MatchRows(), one.ReportRows())
	}
}

func TestConfigureErrors(t *testing.T) {
	a, _ := regex.Compile(`ab`, 1)
	ua, err := transform.ToRate(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	place, err := mapping.Place(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4) // mismatched rate
	if _, err := Configure(ua, place, cfg); err == nil {
		t.Error("rate mismatch accepted")
	}
	cfg = DefaultConfig(2)
	cfg.ReportColumns = 8 // mismatched budget
	if _, err := Configure(ua, place, cfg); err == nil {
		t.Error("budget mismatch accepted")
	}
}

// TestConfigureZeroStates: pruning can legally empty a machine whose
// patterns never match; the device must configure and run without reports
// rather than fault on the degenerate geometry.
func TestConfigureZeroStates(t *testing.T) {
	ua := automata.NewUnitAutomaton(4, 1, 2)
	place, err := mapping.Place(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Configure(ua, place, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(funcsim.BytesToUnits([]byte("abc"), 4), RunOptions{RecordEvents: true})
	if res.Reports != 0 || len(res.Events) != 0 {
		t.Fatalf("empty machine reported: %+v", res)
	}
}
