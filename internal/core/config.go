// Package core is the architectural simulator for Sunder itself: the
// paper's contribution. A Machine models processing units built from
// 256×256 dual-port 8T subarrays (Figure 4): the upper 16·rate rows hold
// one-hot nibble encodings read through the four 4:16 decoders and combined
// by multi-row activation, and Port 2 performs state matching on them.
// Local full-crossbar switches and per-cluster global switches implement
// the interconnect of Section 5.2. The remaining rows of each subarray are
// the report region of Section 5.1.2; the Machine only matches and returns
// each cycle's reporting states, and report.NewSunder models the region —
// the one reporting model every device path feeds. Config carries both
// halves' parameters.
//
// The device's observable behaviour — which states are active, which
// report, and the architectural counters — is exact; how a cycle is
// computed is not part of it. A Machine steps the word-level NFA plan of
// package nfa over its states in placement order, shared by the machine,
// its clones and the lazy DFA of the same compile, and owns only what
// execution mutates (DESIGN.md §4.18). Configure checks once that the
// placement routes every edge; spec_test.go programs the subarray tables
// (match rows, crossbars, global switches) from the placement and holds
// Step to them, phase by phase and cycle by cycle, and the functional
// simulator holds it to the automaton.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"sunder/internal/mapping"
)

// Architectural constants of one subarray.
const (
	// RowsPerSubarray and ColsPerSubarray fix the 256×256 geometry.
	RowsPerSubarray = 256
	ColsPerSubarray = 256
	// RowsPerNibble is the one-hot footprint of a 4-bit symbol.
	RowsPerNibble = 16
)

// Config selects the reconfigurable parameters of a device: the rate, which
// the Machine executes at, and the report-region parameters, which its
// reporting model (report.NewSunder) takes.
type Config struct {
	// Rate is the symbol processing rate in nibbles per cycle (1, 2 or
	// 4, i.e. 4-, 8- or 16-bit symbols), Section 5.1.1.
	Rate int
	// ReportColumns is m, the per-subarray report-state budget. The
	// paper allocates 12 based on the observed 3.9% report-state
	// average.
	ReportColumns int
	// MetadataBits is n, the cycle-counter width stored with each report
	// entry (the paper uses 20 bits for 1M-symbol inputs).
	MetadataBits int
	// FIFO enables the Section 5.1.2 FIFO strategy: the host drains
	// report entries from the head of each region during execution, so
	// the region only stalls on true overflow.
	FIFO bool
	// SummarizeOnFull replaces flushing with in-place 16-row batch
	// summarization (column-wise NOR through Port 2), the report
	// summarization of Section 5.1.2 evaluated in Figure 10.
	SummarizeOnFull bool
	// ExportBitsPerCycle is the shared host bandwidth used both for
	// whole-region flushes (w/o FIFO) and for continuous FIFO drain.
	// See EXPERIMENTS.md for its calibration.
	ExportBitsPerCycle int
	// SummarizeBatchRows and SummarizeStallCycles: a batch of rows is
	// NORed per summarization step, stalling matching for 1–2 cycles
	// because Port 2 is borrowed for the multi-row activation.
	SummarizeBatchRows   int
	SummarizeStallCycles int
}

// DefaultConfig returns the paper's configuration for the given rate.
func DefaultConfig(rate int) Config {
	return Config{
		Rate:                 rate,
		ReportColumns:        12,
		MetadataBits:         20,
		FIFO:                 false,
		ExportBitsPerCycle:   128,
		SummarizeBatchRows:   16,
		SummarizeStallCycles: 2,
	}
}

// Validate checks the configuration against the subarray geometry.
func (c Config) Validate() error {
	if c.Rate != 1 && c.Rate != 2 && c.Rate != 4 {
		return fmt.Errorf("core: rate %d not in {1,2,4}", c.Rate)
	}
	if c.ReportColumns < 1 || c.ReportColumns > mapping.StatesPerPU/2 {
		return fmt.Errorf("core: report columns %d out of range", c.ReportColumns)
	}
	if c.MetadataBits < 1 || c.MetadataBits+c.ReportColumns > ColsPerSubarray {
		return fmt.Errorf("core: entry width %d exceeds row width", c.MetadataBits+c.ReportColumns)
	}
	if c.ExportBitsPerCycle < 1 {
		return fmt.Errorf("core: export bandwidth %d", c.ExportBitsPerCycle)
	}
	if c.SummarizeBatchRows < 1 || c.SummarizeStallCycles < 0 {
		return fmt.Errorf("core: bad summarize parameters")
	}
	return nil
}

// MatchRows returns the rows used for state matching at the configured
// rate; the rest of the subarray is the report region (Section 5.1.1).
func (c Config) MatchRows() int { return RowsPerNibble * c.Rate }

// ReportRows returns the rows available for report storage.
func (c Config) ReportRows() int { return RowsPerSubarray - c.MatchRows() }

// EntryBits returns the width of one report entry (m report bits plus
// n-bit metadata).
func (c Config) EntryBits() int { return c.ReportColumns + c.MetadataBits }

// EntriesPerRow returns how many report entries pack into one 256-bit row.
func (c Config) EntriesPerRow() int { return ColsPerSubarray / c.EntryBits() }

// RegionCapacity returns the report-entry capacity of one subarray's
// report region.
func (c Config) RegionCapacity() int { return c.ReportRows() * c.EntriesPerRow() }

// MaxCycles returns how many cycles a machine of this configuration can
// execute and still cycle-stamp a report: before its data entry, a report
// in a fresh region chains stride markers of MetadataBits each, and the
// chain must leave the entry one of the region's slots. A reporting model
// fed a report past it panics, so whatever feeds a device input of
// unbounded length checks this first. Saturates at math.MaxInt64.
func (c Config) MaxCycles() int64 {
	if c.MetadataBits >= 63 {
		return math.MaxInt64
	}
	mask := uint64(1)<<uint(c.MetadataBits) - 1
	hi, strides := bits.Mul64(uint64(c.RegionCapacity()-1), mask)
	if hi != 0 || strides > math.MaxInt64>>uint(c.MetadataBits) {
		return math.MaxInt64
	}
	return int64(strides << uint(c.MetadataBits))
}

// LocalCounterBits returns the size of the per-subarray report write
// counter per Equation 1: ⌈log #ReportRows⌉ + ⌈log(256/(m+n))⌉.
func (c Config) LocalCounterBits() int {
	return ceilLog2(c.ReportRows()) + ceilLog2(c.EntriesPerRow())
}

func ceilLog2(v int) int {
	n := 0
	for (1 << n) < v {
		n++
	}
	return n
}
