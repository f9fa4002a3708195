package core

import "sunder/internal/hardware"

// Measured-activity energy accounting. The power study in internal/exp
// assumes constant activity; the simulator can do better because it knows
// exactly which arrays it touched: every kernel cycle each PU performs one
// Port-2 multi-row match read and one crossbar read per active source
// column (the machine counts these), and every report entry is one Port-1
// write (the reporting model counts those, report.Sunder.Energy). Access energy is derived from
// Table 2 as read-power × access-delay.

// EnergyCounters accumulates array-access counts during execution.
type EnergyCounters struct {
	// MatchReads counts Port-2 state-matching reads (one per PU per
	// kernel cycle).
	MatchReads int64
	// XbarRowReads counts crossbar row activations (one per active
	// source column per cycle); the wired-NOR read touches only rows of
	// active states.
	XbarRowReads int64
	// ReportWrites counts Port-1 report-entry writes (including stride
	// markers).
	ReportWrites int64
	// ExportedBits counts bits moved to the host (flushes and FIFO
	// drain).
	ExportedBits int64
}

// accessEnergyPJ converts a Table 2 subarray's read power and delay into
// per-access energy in picojoules: mW × ps = 1e-3 J/s × 1e-12 s = 1e-15 J,
// i.e. femtojoules; divide by 1000 for pJ.
func accessEnergyPJ(s hardware.Subarray) float64 {
	return s.PowerMW * s.DelayPS * 1e-3
}

// EnergyPJ returns the total dynamic energy estimate in picojoules.
// Crossbar row activations are charged a per-row share of the full-array
// read (1/256), since only the activated rows discharge their wordlines.
// Export energy is charged one array access per 256 bits moved.
func (c EnergyCounters) EnergyPJ() float64 {
	arr := accessEnergyPJ(hardware.Sunder8T256)
	return float64(c.MatchReads)*arr +
		float64(c.XbarRowReads)*arr/256 +
		float64(c.ReportWrites)*arr +
		float64(c.ExportedBits)/256*arr
}

// PerByte returns measured picojoules per input byte for a run of
// kernelCycles cycles at rate nibbles per cycle.
func (c EnergyCounters) PerByte(kernelCycles int64, rate int) float64 {
	bytes := kernelCycles * int64(rate) / 2 // 2 nibbles per byte
	if bytes == 0 {
		return 0
	}
	return c.EnergyPJ() / float64(bytes)
}

// Energy returns the matching counters accumulated since configuration or
// Reset; ReportWrites and ExportedBits are the reporting model's.
func (m *Machine) Energy() EnergyCounters { return m.energy }
