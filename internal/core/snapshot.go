package core

import (
	"fmt"
	"slices"

	"sunder/internal/bitvec"
)

// Checkpoint/rewind support for the fault-recovery layer: a Snapshot
// captures the machine's execution state — active vectors, report regions,
// the report cursors, cycle and energy accounting — but not its
// configuration (match rows, crossbar), which is owned by Configure and
// restored by scrubbing. Restore accepts an optional PU index mapping so a
// snapshot taken before a quarantine can be replayed onto a reconfigured
// machine whose states moved to spare PUs.

// puSnapshot is one PU's execution state.
type puSnapshot struct {
	pu
	active bitvec.V256
	region []bitvec.V256
	parity *bitvec.Vector
}

// Snapshot is a bounded checkpoint of a machine's execution state.
type Snapshot struct {
	kernelCycles int64
	stallCycles  int64
	drainCredit  int64
	drainRR      int
	energy       EnergyCounters
	matchRows    int
	pus          []puSnapshot
}

// KernelCycles returns the checkpointed kernel-cycle count.
func (s *Snapshot) KernelCycles() int64 { return s.kernelCycles }

// NumPUs returns the number of PUs captured.
func (s *Snapshot) NumPUs() int { return len(s.pus) }

// Snapshot captures the machine's current execution state.
func (m *Machine) Snapshot() *Snapshot {
	mr := m.cfg.MatchRows()
	s := &Snapshot{
		kernelCycles: m.kernelCycles,
		stallCycles:  m.stallCycles,
		drainCredit:  m.drainCredit,
		drainRR:      m.drainRR,
		energy:       m.energy,
		matchRows:    mr,
		pus:          make([]puSnapshot, len(m.pus)),
	}
	for i := range m.pus {
		ps := &s.pus[i]
		ps.pu = m.pus[i]
		ps.active = m.active[i]
		ps.region = slices.Clone(m.regionOf(i))
		if m.flt != nil {
			ps.parity = m.flt.parity[i].Clone()
		}
	}
	return s
}

// Restore rewinds the machine to a snapshot. puMap, when non-nil, maps the
// snapshot's PU indices onto the machine's (puMap[old] = new) so a
// checkpoint taken before a quarantine replays onto the reconfigured
// machine; PUs not named as a mapping target are reset to an empty state.
// A nil puMap is the identity. Configuration rows are not restored — run
// ScrubConfig afterwards if transient configuration faults may be pending.
func (m *Machine) Restore(s *Snapshot, puMap []int) error {
	if s.matchRows != m.cfg.MatchRows() {
		return fmt.Errorf("core: snapshot match geometry %d rows != machine %d", s.matchRows, m.cfg.MatchRows())
	}
	if puMap != nil && len(puMap) != len(s.pus) {
		return fmt.Errorf("core: puMap length %d != snapshot PUs %d", len(puMap), len(s.pus))
	}
	if puMap == nil && len(s.pus) != len(m.pus) {
		return fmt.Errorf("core: snapshot has %d PUs, machine %d (need a puMap)", len(s.pus), len(m.pus))
	}
	mapped := make([]int, len(m.pus)) // target -> old snapshot index + 1
	for old := range s.pus {
		tgt := old
		if puMap != nil {
			tgt = puMap[old]
		}
		if tgt < 0 || tgt >= len(m.pus) {
			return fmt.Errorf("core: puMap[%d] = %d out of range [0,%d)", old, tgt, len(m.pus))
		}
		if mapped[tgt] != 0 {
			return fmt.Errorf("core: puMap maps both %d and %d onto PU %d", mapped[tgt]-1, old, tgt)
		}
		mapped[tgt] = old + 1
	}
	m.resident = 0
	for tgt := range m.pus {
		if mapped[tgt] == 0 {
			// Unmapped (spare or vacated) PU: pristine execution state.
			m.active[tgt] = bitvec.V256{}
			clear(m.regionOf(tgt))
			m.pus[tgt] = pu{}
			if m.flt != nil {
				m.flt.parity[tgt].Reset()
				m.flt.parityErrs[tgt] = 0
			}
			continue
		}
		ps := &s.pus[mapped[tgt]-1]
		m.pus[tgt] = ps.pu
		m.active[tgt] = ps.active
		copy(m.regionOf(tgt), ps.region)
		m.resident += ps.occupied
		if m.flt != nil {
			if ps.parity != nil {
				m.flt.parity[tgt].CopyFrom(ps.parity)
			} else {
				m.flt.parity[tgt].Reset()
			}
			m.flt.parityErrs[tgt] = 0
		}
	}
	m.kernelCycles = s.kernelCycles
	m.stallCycles = s.stallCycles
	m.drainCredit = s.drainCredit
	m.drainRR = 0
	if s.drainRR < len(m.pus) {
		m.drainRR = s.drainRR
	}
	m.energy = s.energy
	return nil
}
