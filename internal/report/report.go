// Package report models reporting architectures, all trace-driven: each
// consumes a per-cycle report trace (the reporting states of every cycle
// that reported) and accounts stalls, flushes and exported data. Sunder's
// own in-place, memory-mapped reporting (Section 5.1.2, NewSunder) is fed
// the device core's report-state stream; the Micron Automata Processor's
// hierarchical two-level buffer design (Section 2.2, Figure 2) and its
// Report Aggregator Division (RAD) refinement by Wadden et al. are fed the
// functional simulator's byte-level trace. Together they yield the columns
// of Table 4.
//
// AP model in brief: report STEs are grouped into reporting regions of
// RegionSize states. In any cycle where a region has at least one active
// report STE, the AP offloads that region's full vector plus metadata into
// the region's L1 buffer; RAD offloads only the non-empty chunks of the
// vector, each chunk paying its own metadata. A full L1 buffer stalls the
// whole device while it drains toward the host (the AP cannot push and pop
// simultaneously), at an effective export bandwidth that covers the
// L1→L2→host path.
package report

import (
	"fmt"

	"sunder/internal/automata"
)

// Params collects the published and derived constants of the AP reporting
// model.
type Params struct {
	// RegionSize is the number of report STEs per reporting region
	// (Section 2.2: 1024).
	RegionSize int
	// MetadataBits accompany every offloaded vector or chunk (64-bit
	// cycle metadata, Section 2.2).
	MetadataBits int
	// L1CapacityBits is one L1 report buffer's capacity (Section 7.1:
	// 481Kb per buffer).
	L1CapacityBits int
	// ExportBitsPerCycle is the effective drain bandwidth from a full L1
	// buffer to the host across the shared L2 path. It is calibrated so
	// the model reproduces the published 46× Snort slowdown; see
	// EXPERIMENTS.md.
	ExportBitsPerCycle int
	// RADChunkBits is the chunk granularity of the RAD scheme.
	RADChunkBits int
}

// DefaultParams returns the Section 7.1 configuration.
func DefaultParams() Params {
	return Params{
		RegionSize:         1024,
		MetadataBits:       64,
		L1CapacityBits:     481 * 1024,
		ExportBitsPerCycle: 24,
		RADChunkBits:       128,
	}
}

// Result summarizes a reporting-model run.
type Result struct {
	// StallCycles is the total cycles execution was stalled for buffer
	// drains.
	StallCycles int64
	// Flushes is the number of full-buffer drain events.
	Flushes int64
	// OffloadedBits counts all report data and metadata pushed into L1.
	OffloadedBits int64
	// Summaries counts in-place summarizations (Sunder with
	// SummarizeOnFull, or a host Summarize).
	Summaries int64
}

// Overhead returns the Table 4 slowdown: (kernel + stalls) / kernel.
func (r Result) Overhead(kernelCycles int64) float64 {
	if kernelCycles == 0 {
		return 1
	}
	return float64(kernelCycles+r.StallCycles) / float64(kernelCycles)
}

// Model is a trace-driven reporting architecture model.
type Model interface {
	// Name identifies the model in tables.
	Name() string
	// OnReportCycle is called once per cycle that generated at least one
	// report, with the active report states. The slice is not retained.
	OnReportCycle(cycle int64, states []automata.StateID)
	// Result returns the accumulated statistics.
	Result() Result
}

// stateRegions maps report STEs to (region, bit-within-region) by rank:
// report states are packed into regions in state-ID order, matching how a
// compiler would route them to reporting regions.
type stateRegions struct {
	regionOf map[automata.StateID]int
	bitOf    map[automata.StateID]int
	regions  int
}

func newStateRegions(a *automata.Automaton, regionSize int) stateRegions {
	m := stateRegions{
		regionOf: make(map[automata.StateID]int),
		bitOf:    make(map[automata.StateID]int),
	}
	rank := 0
	for i := range a.States {
		if !a.States[i].Report {
			continue
		}
		m.regionOf[automata.StateID(i)] = rank / regionSize
		m.bitOf[automata.StateID(i)] = rank % regionSize
		rank++
	}
	m.regions = (rank + regionSize - 1) / regionSize
	if m.regions == 0 {
		m.regions = 1
	}
	return m
}

// apModel implements the plain AP reporting architecture.
type apModel struct {
	p       Params
	m       stateRegions
	occBits []int64 // current L1 occupancy per region
	res     Result
	seen    map[int]bool // scratch: regions hit this cycle
}

// NewAP builds the AP model for an automaton's report states.
func NewAP(a *automata.Automaton, p Params) Model {
	m := newStateRegions(a, p.RegionSize)
	return &apModel{p: p, m: m, occBits: make([]int64, m.regions), seen: make(map[int]bool)}
}

func (ap *apModel) Name() string { return "AP" }

func (ap *apModel) OnReportCycle(cycle int64, states []automata.StateID) {
	clear(ap.seen)
	for _, s := range states {
		ap.seen[ap.m.regionOf[s]] = true
	}
	entry := int64(ap.p.RegionSize + ap.p.MetadataBits)
	for r := range ap.seen {
		ap.push(r, entry)
	}
}

// push offloads bits into region r's L1, stalling for a drain when full.
func (ap *apModel) push(r int, bits int64) {
	if ap.occBits[r]+bits > int64(ap.p.L1CapacityBits) {
		ap.res.Flushes++
		ap.res.StallCycles += drainCycles(ap.occBits[r], ap.p.ExportBitsPerCycle)
		ap.occBits[r] = 0
	}
	ap.occBits[r] += bits
	ap.res.OffloadedBits += bits
}

func (ap *apModel) Result() Result { return ap.res }

// radModel implements AP+RAD: fine-grained chunked offload.
type radModel struct {
	p       Params
	m       stateRegions
	occBits []int64
	res     Result
	seen    map[[2]int]bool // scratch: (region, chunk) hit this cycle
}

// NewRAD builds the AP+RAD model for an automaton's report states.
func NewRAD(a *automata.Automaton, p Params) Model {
	m := newStateRegions(a, p.RegionSize)
	return &radModel{p: p, m: m, occBits: make([]int64, m.regions), seen: make(map[[2]int]bool)}
}

func (rd *radModel) Name() string { return "AP+RAD" }

func (rd *radModel) OnReportCycle(cycle int64, states []automata.StateID) {
	clear(rd.seen)
	for _, s := range states {
		r := rd.m.regionOf[s]
		c := rd.m.bitOf[s] / rd.p.RADChunkBits
		rd.seen[[2]int{r, c}] = true
	}
	entry := int64(rd.p.RADChunkBits + rd.p.MetadataBits)
	for rc := range rd.seen {
		rd.push(rc[0], entry)
	}
}

func (rd *radModel) push(r int, bits int64) {
	if rd.occBits[r]+bits > int64(rd.p.L1CapacityBits) {
		rd.res.Flushes++
		rd.res.StallCycles += drainCycles(rd.occBits[r], rd.p.ExportBitsPerCycle)
		rd.occBits[r] = 0
	}
	rd.occBits[r] += bits
	rd.res.OffloadedBits += bits
}

func (rd *radModel) Result() Result { return rd.res }

func drainCycles(bits int64, perCycle int) int64 {
	if perCycle <= 0 {
		panic(fmt.Sprintf("report: export bandwidth %d", perCycle))
	}
	return (bits + int64(perCycle) - 1) / int64(perCycle)
}
