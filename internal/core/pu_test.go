package core

import (
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
)

// Direct unit tests of the subarray model: row layout, multi-row
// activation, report-entry bit packing, and summarization collapse.

// bare returns a machine of npu PUs with an empty configuration; the tests
// below program its image by hand.
func bare(t *testing.T, cfg Config, npu int) *Machine {
	t.Helper()
	place := &mapping.Placement{ReportColumns: cfg.ReportColumns, NumPUs: npu, StateAt: make([][]int32, npu)}
	for i := range place.StateAt {
		place.StateAt[i] = make([]int32, ColsPerSubarray)
		for c := range place.StateAt[i] {
			place.StateAt[i][c] = -1
		}
	}
	m, err := Configure(automata.NewUnitAutomaton(4, cfg.Rate, 2), place, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stepActive enables every column of PU 0, steps one vector and returns
// the PU's new active vector — its match vector for vec.
func stepActive(m *Machine, vec ...funcsim.Unit) bitvec.V256 {
	m.Reset()
	m.img.startAll[0] = bitvec.V256{}.Not()
	m.Step(vec, nil)
	return m.active[0]
}

func TestMatchVectorMultiRowActivation(t *testing.T) {
	m := bare(t, DefaultConfig(2), 1)
	// Column 3 accepts nibble 0xA at position 0 and nibble 0x1 at
	// position 1; column 7 accepts 0xA at position 0 only.
	m.img.matchRow(0, 0xA).Set(3)
	m.img.matchRow(0, RowsPerNibble+0x1).Set(3)
	m.img.matchRow(0, 0xA).Set(7)

	got := stepActive(m, 0xA, 0x1)
	if !got.Get(3) {
		t.Error("column 3 should match (both groups)")
	}
	if got.Get(7) {
		t.Error("column 7 must fail the AND (no group-1 row)")
	}
	// Different nibble at position 0: nothing matches.
	if stepActive(m, 0xB, 0x1).Any() {
		t.Error("wrong nibble matched")
	}
}

func TestMatchVectorPad(t *testing.T) {
	m := bare(t, DefaultConfig(2), 1)
	m.img.matchRow(0, 0x5).Set(1) // col 1 accepts nibble 5 at pos 0
	for v := 0; v < 16; v++ {
		m.img.matchRow(0, RowsPerNibble+v).Set(1) // col 1: don't care at pos 1
	}
	m.img.dontCare[1].Set(1)
	// col 2 requires a real nibble at pos 1.
	m.img.matchRow(0, 0x5).Set(2)
	m.img.matchRow(0, RowsPerNibble+0x6).Set(2)

	got := stepActive(m, 0x5, funcsim.Pad)
	if !got.Get(1) {
		t.Error("don't-care column must match pad")
	}
	if got.Get(2) {
		t.Error("real-nibble column must not match pad")
	}
}

func TestWriteReportEntryLayout(t *testing.T) {
	cfg := DefaultConfig(4) // m=12, n=20, entry=32 bits, 8 per row
	m := bare(t, cfg, 1)
	var rep bitvec.V256
	rep.Set(ColsPerSubarray - 12) // report column k=0
	rep.Set(ColsPerSubarray - 1)  // report column k=11
	m.writeEntry(0, rep, 0xABCDE)

	rows := m.regionOf(0)
	if !rows[0].Get(0) || !rows[0].Get(11) {
		t.Error("report bits not at expected positions")
	}
	if rows[0].Get(1) {
		t.Error("unset report column leaked")
	}
	// Metadata 0xABCDE in bits [12, 32).
	var meta int64
	for j := 0; j < cfg.MetadataBits; j++ {
		if rows[0].Get(12 + j) {
			meta |= 1 << uint(j)
		}
	}
	if meta != 0xABCDE {
		t.Errorf("metadata = %#x", meta)
	}
	if p := m.pus[0]; p.counter != 1 || p.occupied != 1 {
		t.Errorf("counter=%d occupied=%d", p.counter, p.occupied)
	}

	// Second entry lands in the same row at bit offset 32.
	var rep2 bitvec.V256
	rep2.Set(ColsPerSubarray - 12)
	m.writeEntry(0, rep2, 1)
	if !rows[0].Get(32) {
		t.Error("second entry not packed at offset 32")
	}

	// Entry 8 rolls to the next row.
	for i := 2; i < 9; i++ {
		m.writeEntry(0, rep2, int64(i))
	}
	if !rows[1].Get(0) {
		t.Error("ninth entry not in the next row")
	}
}

func TestCounterWrapsAtCapacity(t *testing.T) {
	cfg := DefaultConfig(4)
	m := bare(t, cfg, 1)
	var rep bitvec.V256
	rep.Set(ColsPerSubarray - 1)
	for i := 0; i < cfg.RegionCapacity(); i++ {
		m.writeEntry(0, rep, int64(i))
	}
	if p := m.pus[0]; p.counter != 0 {
		t.Errorf("counter = %d after full region, want wrap to 0", p.counter)
	} else if p.occupied != cfg.RegionCapacity() || m.resident != p.occupied {
		t.Errorf("occupied = %d, resident = %d", p.occupied, m.resident)
	}
}

func TestClearRegionInvalidatesStride(t *testing.T) {
	m := bare(t, DefaultConfig(2), 2)
	var rep bitvec.V256
	rep.Set(ColsPerSubarray - 1)
	m.writeEntry(0, rep, 7)
	m.writeEntry(1, rep, 7)
	m.clearRegion(1)
	p := m.pus[1]
	if p.occupied != 0 || p.counter != 0 {
		t.Error("region not cleared")
	}
	if p.lastStride != -1 {
		t.Errorf("lastStride = %d, want -1 (forces a fresh marker)", p.lastStride)
	}
	for r, row := range m.regionOf(1) {
		if row.Any() {
			t.Fatalf("row %d not cleared", r)
		}
	}
	if m.pus[0].occupied != 1 || m.resident != 1 || !m.regionOf(0)[0].Any() {
		t.Error("clearing PU 1 disturbed PU 0")
	}
}

func TestSummarizeCollapsesSlots(t *testing.T) {
	cfg := DefaultConfig(4)
	m := bare(t, cfg, 1)
	// Two entries in different slots reporting different columns.
	var rep1, rep2 bitvec.V256
	rep1.Set(ColsPerSubarray - 12) // k=0
	rep2.Set(ColsPerSubarray - 6)  // k=6
	m.writeEntry(0, rep1, 1)
	m.writeEntry(0, rep2, 2)
	batches := m.summarize(0)
	if want := (cfg.ReportRows() + cfg.SummarizeBatchRows - 1) / cfg.SummarizeBatchRows; batches != want {
		t.Errorf("batches = %d, want %d", batches, want)
	}
	summary := m.pus[0].summary
	if !summary.Get(ColsPerSubarray-12) || !summary.Get(ColsPerSubarray-6) {
		t.Errorf("summary = %v", summary.Bits())
	}
	if summary.Count() != 2 {
		t.Errorf("summary count = %d", summary.Count())
	}
}

func TestMachineGetters(t *testing.T) {
	m, _ := build(t, []regex.Pattern{{Expr: `ab`, Code: 1}}, DefaultConfig(2))
	if m.Config().Rate != 2 {
		t.Error("Config getter wrong")
	}
	if m.KernelCycles() != 0 || m.StallCycles() != 0 || m.Overhead() != 1.0 {
		t.Error("fresh machine getters wrong")
	}
	m.Run(funcsim.BytesToUnits([]byte("ab"), 4), RunOptions{})
	if m.KernelCycles() != 2 {
		t.Errorf("kernel cycles = %d", m.KernelCycles())
	}
}

// TestFIFODrainRoundRobin: with several PUs holding unread entries, the
// shared drain serves them all.
func TestFIFODrainRoundRobin(t *testing.T) {
	// Two independent always-reporting patterns in different PUs: force
	// multi-PU by exceeding one PU's report budget with many patterns.
	var ps []regex.Pattern
	for i := 0; i < 32; i++ {
		expr := string(rune('a'+i%4)) + string(rune('a'+(i/4)%4))
		ps = append(ps, regex.Pattern{Expr: expr, Code: int32(i)})
	}
	cfg := DefaultConfig(2)
	cfg.FIFO = true
	m, _ := build(t, ps, cfg)
	if m.NumPUs() < 2 {
		t.Skip("placement fit one PU; round-robin not exercised")
	}
	input := make([]byte, 8000)
	for i := range input {
		input[i] = byte('a' + i%4)
	}
	res := m.Run(funcsim.BytesToUnits(input, 4), RunOptions{})
	if res.Reports == 0 {
		t.Fatal("no reports generated")
	}
	// With continuous drain the machine must not accumulate stalls at
	// this rate.
	if res.StallCycles != 0 {
		t.Errorf("stalls = %d", res.StallCycles)
	}
}
