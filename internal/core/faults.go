package core

import (
	"fmt"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

// Fault surface of the machine: the 8T subarrays hold configuration (match
// rows, crossbar switches) and live report data in place, so both are
// exposed to transient bit flips and stuck-at defects. A fault layer
// attaches through AttachFaults and perturbs the device between cycles via
// the accessor methods below; the machine in turn maintains the detection
// state the layer relies on — per-report-entry parity, a golden
// configuration image for scrubbing, and a region write/consume audit.
//
// Everything here follows the telemetry layer's zero-overhead-when-disabled
// contract: a nil hook costs one branch per instrumented site, and parity/
// golden state is only allocated when a hook is attached.

// FaultHook is consulted by the machine's execution paths when attached.
// Implementations live outside core (see internal/faults) and mutate the
// machine through the fault-surface accessors.
type FaultHook interface {
	// BeforeCycle runs at the start of every Step, before enables are
	// computed; the hook may flip stored bits or assert stuck-at defects.
	BeforeCycle(m *Machine, cycle int64)
	// DropDrain is consulted once per FIFO-drained entry; returning true
	// silently loses the drained row (the host never receives it).
	DropDrain(pu int) bool
}

// faultState holds the detection bookkeeping allocated by AttachFaults.
type faultState struct {
	hook FaultHook
	// golden is the configuration image in force at attach time — the
	// scrubbing reference. Only configuration is golden; the report region
	// holds live data and is covered by parity instead.
	golden *image
	// parity[pu] holds one parity bit per report-entry slot; bit k is the
	// even parity of slot k's m+n entry bits, written alongside the entry
	// (modelling a dedicated parity column per slot).
	parity []*bitvec.Vector
	// parityErrs[pu] accumulates parity mismatches found on the consume
	// paths (drain pops, overflow waits, pre-flush sweeps) where corrupted
	// entries would otherwise reach the host between window checks.
	parityErrs []int64
}

// AttachFaults connects a fault hook to the machine, capturing the golden
// configuration image and allocating parity state. The golden image is the
// machine's current one, frozen by giving up ownership of it, so the first
// configuration fault writes a private copy. Passing nil detaches and
// releases the detection state, restoring the zero-overhead path.
func (m *Machine) AttachFaults(h FaultHook) {
	if h == nil {
		m.flt = nil
		return
	}
	fs := &faultState{
		hook:       h,
		golden:     m.img,
		parity:     make([]*bitvec.Vector, len(m.pus)),
		parityErrs: make([]int64, len(m.pus)),
	}
	m.owned = false
	for i := range m.pus {
		fs.parity[i] = bitvec.New(m.cfg.RegionCapacity())
	}
	m.flt = fs
}

// FaultsAttached reports whether a fault hook is attached.
func (m *Machine) FaultsAttached() bool { return m.flt != nil }

// FlipRowBit flips one stored bit of PU pu's match/report subarray — a
// transient single-event upset in an 8T cell.
func (m *Machine) FlipRowBit(pu, row, col int) {
	if pu < 0 || pu >= len(m.pus) || row < 0 || row >= RowsPerSubarray || col < 0 || col >= ColsPerSubarray {
		panic(fmt.Sprintf("core: FlipRowBit(%d,%d,%d) out of range", pu, row, col))
	}
	r := m.row(pu, row, true)
	setBit(r, col, !r.Get(col))
}

// XbarBit reads one local-crossbar switch bit.
func (m *Machine) XbarBit(pu, src, dst int) bool {
	return m.img.xbarRow(pu, src).Get(dst)
}

// SetXbarBit forces one local-crossbar switch — the mechanism a stuck-at
// defect uses to re-assert itself after scrubbing restores the golden
// configuration.
func (m *Machine) SetXbarBit(pu, src, dst int, on bool) {
	setBit(m.own().xbarRow(pu, src), dst, on)
}

// Occupied returns the number of report entries resident in PU pu's region.
func (m *Machine) Occupied(pu int) int { return m.pus[pu].occupied }

// RegionCursor returns PU pu's local write counter (the next entry slot).
// The resident entries occupy slots [cursor-occupied, cursor) modulo the
// region capacity.
func (m *Machine) RegionCursor(pu int) int { return m.pus[pu].counter }

// ScrubResult summarizes one configuration scrubbing pass.
type ScrubResult struct {
	// RepairedBits is the total number of configuration bits that differed
	// from the golden image and were restored.
	RepairedBits int
	// PerPU[i] is the repaired-bit count of PU i; non-zero entries
	// implicate the PU for quarantine accounting.
	PerPU []int
}

// ScrubConfig compares every PU's match rows and crossbar switches against
// the golden image captured at AttachFaults time, restores any divergent
// bits, and reports what was repaired. It models the periodic configuration
// scrubbing pass of the recovery layer: reading the configuration back
// through Port 1 and rewriting rows whose checksum diverges from the host's
// copy of the mapping. Panics if no fault hook is attached.
func (m *Machine) ScrubConfig() ScrubResult {
	golden := m.mustFaults().golden
	res := ScrubResult{PerPU: make([]int, len(m.pus))}
	if m.img == golden {
		return res // never written since attach
	}
	img := m.own()
	for k, ref := range golden.match {
		if img.match[k] != ref {
			res.PerPU[k%img.npu] += diffBits(img.match[k], ref)
			img.match[k] = ref
		}
	}
	for k, ref := range golden.xbar {
		if img.xbar[k] != ref {
			res.PerPU[k/ColsPerSubarray] += diffBits(img.xbar[k], ref)
			img.xbar[k] = ref
		}
	}
	for _, n := range res.PerPU {
		res.RepairedBits += n
	}
	return res
}

// diffBits counts the differing bits of two rows.
func diffBits(a, b bitvec.V256) int {
	return bitvec.V256{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]}.Count()
}

// ParityResult summarizes a parity verification pass.
type ParityResult struct {
	// BadSlots is the total number of entry slots whose recomputed parity
	// disagrees with the stored parity bit.
	BadSlots int
	// PerPU[i] is PU i's bad-slot count, including mismatches found
	// earlier on the consume paths (drain pops, pre-flush sweeps) since
	// the last VerifyParity call.
	PerPU []int
}

// VerifyParity recomputes the parity of every resident report entry and
// compares it with the stored parity bit, folding in any mismatches already
// caught on the consume paths. The accumulated consume-path errors are
// cleared. Panics if no fault hook is attached.
func (m *Machine) VerifyParity() ParityResult {
	fs := m.mustFaults()
	res := ParityResult{PerPU: make([]int, len(m.pus))}
	for i := range m.pus {
		u := &m.pus[i]
		n := int(fs.parityErrs[i])
		fs.parityErrs[i] = 0
		for e := 0; e < u.occupied; e++ {
			slot := (u.counter - u.occupied + e + m.capacity) % m.capacity
			if m.entryParity(i, slot) != fs.parity[i].Get(slot) {
				n++
			}
		}
		res.PerPU[i] = n
		res.BadSlots += n
	}
	return res
}

// AuditResult summarizes a report-region accounting audit.
type AuditResult struct {
	// MissingEntries is the total write/consume imbalance across PUs: a
	// silently dropped FIFO drain row advances the region pointer without
	// delivering an entry, leaving written > consumed + resident.
	MissingEntries int64
	// PerPU[i] is PU i's imbalance.
	PerPU []int64
}

// AuditRegions checks, per PU, that every report entry ever written is
// either still resident or was consumed through a legitimate path (FIFO
// drain delivery, overflow wait, region flush, summarization). The check is
// cumulative over the machine's life since the last Reset/Restore; call it
// at window boundaries and compare against the previous window's baseline
// for incremental detection.
func (m *Machine) AuditRegions() AuditResult {
	res := AuditResult{PerPU: make([]int64, len(m.pus))}
	for i := range m.pus {
		u := &m.pus[i]
		d := (u.reportEntries + u.strideMarkers) - (u.consumed + int64(u.occupied))
		res.PerPU[i] = d
		res.MissingEntries += d
	}
	return res
}

// ActiveStates appends the automaton state IDs of every currently active
// column across PUs — the device half of the recovery layer's end-of-window
// cross-check against the functional simulator's active-state vector.
func (m *Machine) ActiveStates(dst []automata.StateID) []automata.StateID {
	for i, a := range m.active {
		dst = appendStates(dst, m.place.StateAt[i], a)
	}
	return dst
}

// mustFaults returns the fault state or panics.
func (m *Machine) mustFaults() *faultState {
	if m.flt == nil {
		panic("core: fault operation without an attached fault hook")
	}
	return m.flt
}

// recordParity stores the parity bit for the slot written last (counter-1).
func (m *Machine) recordParity(pu int) {
	u := &m.pus[pu]
	slot := (u.counter - 1 + m.capacity) % m.capacity
	if m.entryParity(pu, slot) {
		m.flt.parity[pu].Set(slot)
	} else {
		m.flt.parity[pu].Clear(slot)
	}
}

// checkSlotParity verifies one slot on a consume path, accumulating any
// mismatch for the next VerifyParity sweep.
func (m *Machine) checkSlotParity(pu, slot int) {
	if m.entryParity(pu, slot) != m.flt.parity[pu].Get(slot) {
		m.flt.parityErrs[pu]++
	}
}

// checkRegionParity sweeps every resident entry of PU pu before its region
// is consumed wholesale (flush or summarization), so corruption is caught
// even when the corrupted entry leaves the region before the end-of-window
// verification.
func (m *Machine) checkRegionParity(pu int) {
	u := &m.pus[pu]
	for e := 0; e < u.occupied; e++ {
		m.checkSlotParity(pu, (u.counter-u.occupied+e+m.capacity)%m.capacity)
	}
}
