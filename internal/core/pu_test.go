package core

import (
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
)

// Direct unit tests of the subarray model: row layout and multi-row
// activation. (The report region's entry packing and summarization are the
// report model's; report_test.go tests them.)

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
