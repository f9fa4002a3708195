package core

import (
	"fmt"

	"sunder/internal/bitvec"
)

// Normal Mode (NM): Section 5.1 — the left-side 8:256 decoder reads and
// writes ordinary cache data when the subarrays are not in Automata Mode
// (AM). Repurposed LLC slices therefore return to service as cache when
// matching is idle. The model enforces the mode split: row accesses through
// Port 1 are only legal in Normal Mode, and switching back to Automata Mode
// restores the configured matching rows while surrendering whatever the
// host cached in them.

// Mode selects a machine's operating mode.
type Mode int

// Machine operating modes.
const (
	// AutomataMode executes pattern matching (the default after
	// Configure).
	AutomataMode Mode = iota
	// NormalMode exposes the subarrays as ordinary memory rows.
	NormalMode
)

// Mode returns the current operating mode.
func (m *Machine) Mode() Mode { return m.mode }

// EnterNormalMode suspends matching and exposes the subarrays as cache
// rows. The automaton's configuration image is retained internally so
// EnterAutomataMode can restore it.
func (m *Machine) EnterNormalMode() {
	if m.mode == NormalMode {
		return
	}
	m.mode = NormalMode
	// Preserve the configured match rows: the image in force is frozen by
	// giving up ownership of it, so a cache line the host writes over a
	// match row lands in a private copy.
	m.amImage, m.owned = m.img, false
}

// EnterAutomataMode restores the automaton configuration (reprogramming the
// rows the host used as cache) and resumes matching from a reset machine
// state, mirroring a real reconfiguration after cache use.
func (m *Machine) EnterAutomataMode() {
	if m.mode == AutomataMode {
		return
	}
	m.img, m.owned, m.amImage = m.amImage, false, nil
	m.mode = AutomataMode
	m.Reset()
}

// NormalWrite stores a 256-bit row through Port 1. Only legal in Normal
// Mode.
func (m *Machine) NormalWrite(pu, row int, data bitvec.V256) error {
	if err := m.normalCheck(pu, row); err != nil {
		return err
	}
	*m.row(pu, row, true) = data
	return nil
}

// NormalRead loads a 256-bit row through Port 1. Only legal in Normal Mode.
func (m *Machine) NormalRead(pu, row int) (bitvec.V256, error) {
	if err := m.normalCheck(pu, row); err != nil {
		return bitvec.V256{}, err
	}
	return *m.row(pu, row, false), nil
}

func (m *Machine) normalCheck(pu, row int) error {
	if m.mode != NormalMode {
		return fmt.Errorf("core: normal-mode access while in automata mode")
	}
	if pu < 0 || pu >= len(m.pus) {
		return fmt.Errorf("core: PU %d out of range", pu)
	}
	if row < 0 || row >= RowsPerSubarray {
		return fmt.Errorf("core: row %d out of range", row)
	}
	return nil
}
