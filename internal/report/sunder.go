package report

import (
	"fmt"
	"math/bits"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/core"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
)

// Sunder is the in-place, memory-mapped reporting architecture of Section
// 5.1.2: the rows of each PU's match/report subarray below its match rows
// hold report entries written through Port 1 while Port 2 matches. It is
// the one implementation of the region: the device core only matches, and
// whatever steps it — a machine run, a façade runner, merged shards —
// feeds this model its report cycles in cycle order, with absolute cycles.
//
// A report cycle's states map to (PU, column) through the compile's report
// table (core.ReportTable); each PU that reports writes one entry (m report bits plus an n-bit cycle
// stamp, preceded by stride markers when the stamp wrapped) at its local
// counter (Equation 1). A full region flushes, waits for the FIFO drain,
// or summarizes in place, and the stall window is shared by every region
// filling in the same cycle. The FIFO drain shares ExportBitsPerCycle
// across PUs round-robin; it runs every cycle, and a quiet gap between two
// report cycles is caught up at the next one, in time proportional to the
// entries it drains.
type Sunder struct {
	cfg   core.Config
	place *mapping.Placement
	// tab locates each reporting state's report bit: the compile's shared
	// report table.
	tab *core.ReportTable
	// region holds the report rows of every PU, PU i's at
	// [i*ReportRows, (i+1)*ReportRows).
	region []bitvec.V256
	pus    []pu
	// occupied has bit i set while PU i holds an entry: the FIFO drain
	// round-robins over it in time proportional to the entries it drains.
	occupied []uint64
	// resident is the number of entries stored across all regions, so an
	// idle FIFO drain costs no scan over the PUs.
	resident int
	// cycles is how far the model has advanced: the drain has run for
	// every cycle below it.
	cycles      int64
	drainCredit int64
	drainRR     int
	energy      core.EnergyCounters
	stallCycles int64
	// reportRows, capacity, rowBits (a row's entry bits) and maxCycles
	// cache cfg's region geometry for the write path, where its divisions
	// would cost more than the entry write itself.
	reportRows, capacity, rowBits int
	maxCycles                     int64
	// tel is the attached telemetry sink; nil disables instrumentation.
	tel *telemetrySink
}

// reportBits are one entry's report bits, bit k for report column
// ColsPerSubarray-ReportColumns+k (at most 128 of them): bits 0-63 in lo,
// the rest in hi. A struct, not an array, so calls pass it in registers.
type reportBits struct{ lo, hi uint64 }

// get returns report bit k.
func (r reportBits) get(k int) bool {
	if k < 64 {
		return r.lo>>uint(k)&1 != 0
	}
	return r.hi>>uint(k-64)&1 != 0
}

// pu is one processing unit's report-region state: the local write counter
// of Equation 1, the stride the marker chain has reached, and the PU's
// statistics. A PU still at its zero value has not been written since
// Reset.
type pu struct {
	PUStats
	// row and bit locate the next entry slot (Equation 1's local counter,
	// row-major within the region): its region row and bit offset.
	row, bit   int
	lastStride int64
	// summary accumulates per-report-column "reported since last
	// summarize" bits when summarization is used.
	summary bitvec.V256
}

// NewSunder returns the reporting model of a device whose reporting states
// tab locates, configured with cfg: the report regions of the placement's
// processing units, empty. cfg's reporting fields (ReportColumns,
// MetadataBits, FIFO, SummarizeOnFull, ExportBitsPerCycle, the summarize
// batch) select the strategy; several models can consume one machine's
// report stream, and every one shares the table (core.Machine.Reports).
func NewSunder(tab *core.ReportTable, cfg core.Config) *Sunder {
	place := tab.Placement()
	n := place.NumPUs
	return &Sunder{
		cfg:        cfg,
		place:      place,
		tab:        tab,
		region:     make([]bitvec.V256, n*cfg.ReportRows()),
		pus:        make([]pu, n),
		occupied:   make([]uint64, (n+63)/64),
		reportRows: cfg.ReportRows(),
		capacity:   cfg.RegionCapacity(),
		rowBits:    cfg.EntriesPerRow() * cfg.EntryBits(),
		maxCycles:  cfg.MaxCycles(),
	}
}

var _ Model = (*Sunder)(nil)

// Name identifies the model in tables.
func (s *Sunder) Name() string { return "Sunder" }

// Result returns the stall, flush and summarization accounting so far;
// OffloadedBits is the report data moved to the host (flushes and FIFO
// drain).
func (s *Sunder) Result() Result {
	res := Result{StallCycles: s.stallCycles, OffloadedBits: s.energy.ExportedBits}
	for i := range s.pus {
		res.Flushes += s.pus[i].Flushes
		res.Summaries += s.pus[i].Summaries
	}
	return res
}

// Energy returns the device's access counts: the machine's matching
// counters with the model's report-path ones — Port-1 entry writes and
// bits exported to the host.
func (s *Sunder) Energy(matching core.EnergyCounters) core.EnergyCounters {
	matching.ReportWrites, matching.ExportedBits = s.energy.ReportWrites, s.energy.ExportedBits
	return matching
}

// Reset empties every region and zeroes the counters. It clears only the
// regions the run wrote, not the whole device.
func (s *Sunder) Reset() {
	for i := range s.pus {
		if s.pus[i] != (pu{}) {
			clear(s.Rows(i))
			s.pus[i] = pu{}
		}
	}
	clear(s.occupied)
	s.resident = 0
	s.cycles, s.stallCycles = 0, 0
	s.drainCredit, s.drainRR = 0, 0
	s.energy = core.EnergyCounters{}
}

// OnReportCycle writes device cycle cycle's report entries: states are the
// reporting states a machine cycle returned, in its order — PU by PU,
// ascending — and before report de-duplication (a state whose reports all
// de-duplicate away still writes its entry). Each run of states on one PU
// ORs its report bits into that PU's entry. Cycles arrive in increasing
// order; the FIFO drain first catches up through cycle.
func (s *Sunder) OnReportCycle(cycle int64, states []automata.StateID) {
	s.advance(cycle + 1)
	first, stalled := core.ColsPerSubarray-s.cfg.ReportColumns, false
	for k := 0; k < len(states); {
		i, col := s.tab.Where(states[k])
		var rep reportBits
		for j := i; j == i; {
			// Shifts of 64 or more give 0: the bit lands in one half.
			rep.lo |= 1 << uint(col-first)
			rep.hi |= 1 << uint(col-first-64)
			if k++; k == len(states) {
				break
			}
			j, col = s.tab.Where(states[k])
		}
		s.storeReport(i, rep, cycle, &stalled)
	}
}

// Finish advances the model to the end of a run of end cycles: the FIFO
// drain catches up through cycle end-1, as a device draining every cycle
// would have.
func (s *Sunder) Finish(end int64) { s.advance(end) }

// advance runs the drain for the cycles from s.cycles up to end: per cycle
// ExportBitsPerCycle of credit, one entry per EntryBits of it, round-robin
// over the occupied regions, and — with nothing resident — credit that
// banks no further than one entry. Over a gap of k cycles that is
// floor((credit + k·bandwidth)/entry) entries, capped by what is resident.
func (s *Sunder) advance(end int64) {
	k := end - s.cycles
	if k <= 0 {
		return
	}
	s.cycles = end
	if !s.cfg.FIFO {
		return
	}
	entry := int64(s.cfg.EntryBits())
	credit := s.drainCredit + k*int64(s.cfg.ExportBitsPerCycle)
	n := int64(s.resident)
	if credit < n*entry {
		// Only a drain that cannot keep up divides.
		n = credit / entry
	}
	credit -= n * entry
	if n == int64(s.resident) {
		credit = min(credit, entry)
	}
	s.drainCredit = credit
	if n == 0 {
		return
	}
	s.resident -= int(n)
	s.energy.ExportedBits += n * entry
	if s.tel != nil {
		s.tel.drained.Add(n)
	}
	t := s.drainRR
	for ; n > 0; n-- {
		t = s.nextOccupied(t)
		if s.pus[t].Occupancy--; s.pus[t].Occupancy == 0 {
			s.occupied[t>>6] &^= 1 << uint(t&63)
		}
		if t++; t == len(s.pus) {
			t = 0
		}
	}
	s.drainRR = t
}

// nextOccupied returns the first PU at or after t, wrapping, that holds an
// entry; one must.
func (s *Sunder) nextOccupied(t int) int {
	w := t >> 6
	if x := s.occupied[w] &^ (1<<uint(t&63) - 1); x != 0 {
		return w<<6 | bits.TrailingZeros64(x)
	}
	for {
		if w++; w == len(s.occupied) {
			w = 0
		}
		if x := s.occupied[w]; x != 0 {
			return w<<6 | bits.TrailingZeros64(x)
		}
	}
}

// storeReport writes one report entry (preceded by stride markers when the
// cycle counter wrapped) into PU i's region, handling full-region events.
// Its common case, a region with room and no marker due, divides nothing.
//
// A stride marker is an entry with all-zero report bits whose metadata
// holds a stride *delta*; the host accumulates deltas while reading, so
// strides larger than the metadata field chain across several markers
// ("the stride value is concatenated with all zeros ... written in the
// metadata + report data region", Section 7.1). A region flush resets the
// chain: the next report rewrites the full stride so the freshly cleared
// region decodes from zero.
func (s *Sunder) storeReport(i int, rep reportBits, cycle int64, stalled *bool) {
	u := &s.pus[i]
	mb := uint(s.cfg.MetadataBits)
	stride := cycle >> mb
	// Invariant: a marker chain that could never fit (tiny metadata width vs.
	// enormous silent gaps) is refused by whoever feeds the device, which
	// checks its input against Config.MaxCycles before stepping.
	if cycle >= s.maxCycles {
		panic(fmt.Sprintf("report: MetadataBits=%d too small to mark stride %d within a %d-entry region",
			s.cfg.MetadataBits, stride, s.capacity))
	}
	if u.Occupancy >= s.capacity || max(u.lastStride, 0) < stride {
		s.markStride(i, stride, cycle, stalled)
	}
	// Space is secured and the marker chain has reached the stride, so one
	// free slot is guaranteed for the data entry.
	s.writeEntry(i, rep, cycle&(1<<mb-1))
	s.energy.ReportWrites++
	u.ReportEntries++
	u.lastStride = stride
	if s.tel != nil {
		s.tel.puEntries.Inc(i)
		s.tel.occupancy.Observe(int64(u.Occupancy))
		s.tel.event(telemetry.EventReportWrite, cycle, 0, i, u.Occupancy)
	}
}

// markStride is storeReport's slow path, for a full region or a stride the
// marker chain has not reached: it makes space and writes stride markers
// until the chain reaches stride with a slot left for the data entry.
func (s *Sunder) markStride(i int, stride, cycle int64, stalled *bool) {
	u := &s.pus[i]
	for {
		s.ensureSpace(i, cycle, stalled)
		// ensureSpace may have flushed the region, which restarts the
		// marker chain from zero (lastStride == -1); derive the next
		// chunk only after space is secured.
		cur := max(u.lastStride, 0)
		if cur >= stride {
			return
		}
		chunk := min(stride-cur, int64(1)<<uint(s.cfg.MetadataBits)-1)
		s.writeEntry(i, reportBits{}, chunk)
		s.energy.ReportWrites++
		u.StrideMarkers++
		u.lastStride = cur + chunk
		if s.tel != nil {
			s.tel.puMarkers.Inc(i)
			s.tel.event(telemetry.EventStrideMarker, cycle, 0, i, u.Occupancy)
		}
	}
}

// ensureSpace guarantees one free entry slot in PU i's region, performing
// the configured full-region action (flush, forced drain, or
// summarization) and accounting its stall. The stall window is shared by
// every region filling in the same cycle and charged to the first full
// PU, so the per-PU StallCycles fields sum to the aggregate exactly.
func (s *Sunder) ensureSpace(i int, cycle int64, stalled *bool) {
	u := &s.pus[i]
	if u.Occupancy < s.capacity {
		return
	}
	cfg := &s.cfg
	var charged int64
	var kind telemetry.EventKind
	switch {
	case cfg.SummarizeOnFull:
		batches := s.summarize(i)
		s.clearRegion(i)
		u.Summaries++
		kind = telemetry.EventSummarize
		if !*stalled {
			charged = int64(batches * cfg.SummarizeStallCycles)
		}
	case cfg.FIFO:
		// Overflow: wait for the drain to free one entry. Concurrent
		// overflows share the wait window.
		if u.Occupancy--; u.Occupancy == 0 {
			s.occupied[i>>6] &^= 1 << uint(i&63)
		}
		s.resident--
		u.Flushes++
		s.energy.ExportedBits += int64(cfg.EntryBits())
		kind = telemetry.EventOverflow
		if !*stalled {
			charged = int64((cfg.EntryBits() + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	default:
		// Whole-region flush; all full PUs flush in the same stall
		// window since each drains through its own Port 1.
		s.clearRegion(i)
		u.Flushes++
		region := cfg.ReportRows() * core.ColsPerSubarray
		s.energy.ExportedBits += int64(region)
		kind = telemetry.EventFlush
		if !*stalled {
			charged = int64((region + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
		}
	}
	if charged > 0 {
		s.stallCycles += charged
		u.StallCycles += charged
		*stalled = true
	}
	if s.tel != nil {
		if kind == telemetry.EventSummarize {
			s.tel.puSummaries.Inc(i)
		} else {
			s.tel.puFlushes.Inc(i)
		}
		if charged > 0 {
			s.tel.stallCycles.Add(charged)
			s.tel.puStalls.Add(i, charged)
		}
		s.tel.event(kind, cycle, charged, i, u.Occupancy)
	}
}

// Rows returns PU i's report rows as the host reads them through Port 1:
// the memory-mapped region itself. The slice aliases the model.
func (s *Sunder) Rows(i int) []bitvec.V256 {
	rr := s.reportRows
	return s.region[i*rr:][:rr]
}

// entryAt locates entry slot of PU i: its region row and bit offset.
func (s *Sunder) entryAt(i, slot int) (row *bitvec.V256, base int) {
	epr := s.cfg.EntriesPerRow()
	return &s.Rows(i)[slot/epr], slot % epr * s.cfg.EntryBits()
}

// putBits stores the low n (1..64) bits of v at bit offset off of row; the
// field may straddle two words.
func putBits(row *bitvec.V256, off, n int, v uint64) {
	mask := ^uint64(0) >> uint(64-n)
	w, s := off>>6, uint(off&63)
	row[w] = row[w]&^(mask<<s) | v&mask<<s
	if s+uint(n) > 64 {
		row[w+1] = row[w+1]&^(mask>>(64-s)) | v&mask>>(64-s)
	}
}

// writeEntry stores the m report bits of rep plus metadata at PU i's local
// counter position through Port 1 — one shifted word for entries up to 64
// bits, bit by bit for wider ones — moves the counter past the slot,
// wrapping at the region's end, and counts the entry resident. It assumes
// capacity was checked by the caller.
func (s *Sunder) writeEntry(i int, rep reportBits, meta int64) {
	u := &s.pus[i]
	mc, eb := s.cfg.ReportColumns, s.cfg.EntryBits()
	row, bit := &s.region[i*s.reportRows+u.row], u.bit
	if u.bit += eb; u.bit == s.rowBits {
		if u.row, u.bit = u.row+1, 0; u.row == s.reportRows {
			u.row = 0
		}
	}
	if u.Occupancy++; u.Occupancy == 1 {
		s.occupied[i>>6] |= 1 << uint(i&63)
	}
	s.resident++
	u.PeakOccupancy = max(u.PeakOccupancy, u.Occupancy)
	if eb <= 64 {
		putBits(row, bit, eb, rep.lo|uint64(meta)<<uint(mc))
		return
	}
	for k := 0; k < mc; k++ {
		setBit(row, bit+k, rep.get(k))
	}
	for j := 0; j < s.cfg.MetadataBits; j++ {
		setBit(row, bit+mc+j, j < 64 && meta>>uint(j)&1 != 0)
	}
}

func setBit(row *bitvec.V256, i int, on bool) {
	if on {
		row.Set(i)
	} else {
		row.Clear(i)
	}
}

// clearRegion resets PU i's report region after a flush or summarization.
// lastStride is invalidated so the next report re-writes a stride marker,
// keeping host-side cycle reconstruction correct across flushes.
func (s *Sunder) clearRegion(i int) {
	u := &s.pus[i]
	clear(s.Rows(i))
	s.resident -= u.Occupancy
	u.row, u.bit, u.Occupancy = 0, 0, 0
	s.occupied[i>>6] &^= 1 << uint(i&63)
	u.lastStride = -1
}

// summarize performs the column-wise NOR of PU i's report region through
// Port 2 in 16-row batches (Section 5.1.2) and folds the result into the
// per-column summary. It returns the number of batches (each stalls
// matching for SummarizeStallCycles).
//
// The hardware's wired-NOR yields the complement of the column-wise OR;
// the host inverts it, so the model records the OR directly.
func (s *Sunder) summarize(i int) int {
	cfg := &s.cfg
	var or bitvec.V256
	for _, row := range s.Rows(i) {
		or = or.Or(row)
	}
	// Collapse per-entry-slot report bits back onto report columns: slot
	// k of any entry corresponds to report column 256-m+k.
	mc := cfg.ReportColumns
	summary := &s.pus[i].summary
	for slot := 0; slot < cfg.EntriesPerRow(); slot++ {
		base := slot * cfg.EntryBits()
		for k := 0; k < mc; k++ {
			if or.Get(base + k) {
				summary.Set(core.ColsPerSubarray - mc + k)
			}
		}
	}
	return (cfg.ReportRows() + cfg.SummarizeBatchRows - 1) / cfg.SummarizeBatchRows
}

// Summarize performs on-demand report summarization of every PU
// (Section 5.1.2: the host may request it at any time; matching stalls for
// the batch NOR cycles) and returns, per automaton state ID, whether that
// report state has reported since the last summarize/flush. The region is
// cleared afterwards.
func (s *Sunder) Summarize() map[automata.StateID]bool {
	out := make(map[automata.StateID]bool)
	maxBatches, maxPU := 0, 0
	for i := range s.pus {
		u := &s.pus[i]
		batches := s.summarize(i)
		if batches > maxBatches {
			maxBatches = batches
			maxPU = i
		}
		for _, st := range core.AppendStates(nil, s.place.StateAt[i], u.summary) {
			out[st] = true
		}
		u.summary = bitvec.V256{}
		s.clearRegion(i)
		u.Summaries++
		if s.tel != nil {
			s.tel.puSummaries.Inc(i)
		}
	}
	// All PUs summarize in parallel; the stall window is the longest
	// batch chain, attributed to the PU that needed it.
	charged := int64(maxBatches * s.cfg.SummarizeStallCycles)
	s.stallCycles += charged
	if len(s.pus) > 0 {
		s.pus[maxPU].StallCycles += charged
	}
	if s.tel != nil {
		if charged > 0 {
			s.tel.stallCycles.Add(charged)
			s.tel.puStalls.Add(maxPU, charged)
		}
		s.tel.event(telemetry.EventSummarize, s.cycles, charged, maxPU, 0)
	}
	return out
}

// ReportRecord is one decoded entry of a report region.
type ReportRecord struct {
	// Cycle is the reconstructed absolute cycle (stride markers applied).
	Cycle int64
	// States are the automaton states that reported in that cycle.
	States []automata.StateID
}

// ReadReports decodes PU i's report region — the "easy access mechanism":
// reading reports is just reading memory rows. Only meaningful without
// FIFO drain (the host owns the read pointer there).
func (s *Sunder) ReadReports(i int) []ReportRecord {
	var out []ReportRecord
	var stride int64
	mBits := s.cfg.ReportColumns
	for e := 0; e < s.pus[i].Occupancy; e++ {
		row, base := s.entryAt(i, e)
		var states []automata.StateID
		for k := 0; k < mBits; k++ {
			if row.Get(base + k) {
				col := core.ColsPerSubarray - mBits + k
				if st := s.place.StateAt[i][col]; st >= 0 {
					states = append(states, automata.StateID(st))
				}
			}
		}
		var meta int64
		for j := 0; j < s.cfg.MetadataBits; j++ {
			if row.Get(base + mBits + j) {
				meta |= 1 << uint(j)
			}
		}
		if len(states) == 0 {
			// Stride marker: all-zero report bits carrying a stride
			// delta; deltas accumulate across chained markers.
			stride += meta
			continue
		}
		out = append(out, ReportRecord{Cycle: stride<<uint(s.cfg.MetadataBits) | meta, States: states})
	}
	return out
}

// PUStats is a per-processing-unit statistics snapshot.
type PUStats struct {
	// ReportEntries is the number of data entries written into this PU's
	// report region; StrideMarkers counts the all-zero marker entries.
	ReportEntries int64
	StrideMarkers int64
	// Flushes counts whole-region flushes (without FIFO) or overflow
	// waits (with FIFO); Summaries counts in-place summarizations.
	Flushes   int64
	Summaries int64
	// StallCycles is the stall cycles attributed to this PU: when several
	// regions fill in the same cycle they share one stall window, charged
	// to the first full PU. Summing across PUs therefore reproduces the
	// aggregate StallCycles exactly.
	StallCycles int64
	// PeakOccupancy is the region's entry high-water mark; Occupancy is
	// the current (unread) entry count.
	PeakOccupancy int
	Occupancy     int
}

// PU returns processing unit i's statistics for the current run.
func (s *Sunder) PU(i int) PUStats { return s.pus[i].PUStats }

// PerPU returns per-PU statistics for the current run. Summing any field
// across the slice yields the corresponding aggregate (Flushes,
// StallCycles, …).
func (s *Sunder) PerPU() []PUStats {
	out := make([]PUStats, len(s.pus))
	for i := range s.pus {
		out[i] = s.pus[i].PUStats
	}
	return out
}
