package core

import (
	"fmt"
	"math/bits"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
)

// Machine is a configured Sunder device: a set of processing units holding
// one transformed automaton, executing one input vector per cycle. It owns
// only what execution mutates — active vectors, report regions, counters;
// the configuration lives in an image shared with every clone.
type Machine struct {
	cfg   Config
	a     *automata.UnitAutomaton
	place *mapping.Placement
	// img is the configuration image (see image). It is shared and
	// read-only unless owned is set; every write goes through own.
	img   *image
	owned bool

	// active[i] is PU i's active-state vector (the pink register of
	// Figure 4); enables is the per-cycle scratch the next one is built in.
	active, enables []bitvec.V256
	// region holds the report rows of every PU, PU i's at
	// [i*ReportRows, (i+1)*ReportRows): the part of the match/report
	// subarray below the match rows, written in place through Port 1.
	region []bitvec.V256
	pus    []pu
	// resident is the number of report entries stored across all regions,
	// so an idle FIFO drain costs no scan over the PUs.
	resident int
	// entriesPerRow, capacity and maxCycles cache cfg.EntriesPerRow(),
	// cfg.RegionCapacity() and cfg.MaxCycles() for the report path, where
	// their divisions would cost more than the entry write itself.
	entriesPerRow, capacity int
	maxCycles               int64

	kernelCycles int64
	stallCycles  int64
	drainCredit  int64
	drainRR      int
	energy       EnergyCounters
	// tel is the attached telemetry sink; nil (the default) disables all
	// instrumentation at the cost of one branch per site.
	tel *telemetrySink

	// mode and amImage implement Normal Mode (see normalmode.go).
	mode    Mode
	amImage *image
	// noStartData suppresses start-of-data injection on cycle zero (see
	// SuppressStartOfData); set on shard-worker clones replaying mid-stream.
	noStartData bool
}

// Configure builds a Machine from a transformed automaton and a placement.
// The automaton's rate must equal the configuration's, and the placement
// must have been produced with the same report-column budget.
func Configure(a *automata.UnitAutomaton, place *mapping.Placement, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.UnitBits != 4 {
		return nil, fmt.Errorf("core: machine executes nibble automata; got %d-bit units", a.UnitBits)
	}
	if a.Rate != cfg.Rate {
		return nil, fmt.Errorf("core: automaton rate %d != configured rate %d", a.Rate, cfg.Rate)
	}
	if place.ReportColumns != cfg.ReportColumns {
		return nil, fmt.Errorf("core: placement used %d report columns, config has %d",
			place.ReportColumns, cfg.ReportColumns)
	}
	img, err := buildImage(a, place, cfg)
	if err != nil {
		return nil, err
	}
	return newMachine(cfg, a, place, img), nil
}

// newMachine returns a machine in its post-configuration state over img.
func newMachine(cfg Config, a *automata.UnitAutomaton, place *mapping.Placement, img *image) *Machine {
	vecs := make([]bitvec.V256, 2*img.npu)
	return &Machine{
		cfg:     cfg,
		a:       a,
		place:   place,
		img:     img,
		active:  vecs[:img.npu:img.npu],
		enables: vecs[img.npu:],
		region:  make([]bitvec.V256, img.npu*cfg.ReportRows()),
		pus:     make([]pu, img.npu),

		entriesPerRow: cfg.EntriesPerRow(),
		capacity:      cfg.RegionCapacity(),
		maxCycles:     cfg.MaxCycles(),
	}
}

// own makes the configuration image private to m and returns it: the one
// step every writer of configuration takes first, so a shared image is
// never written.
func (m *Machine) own() *image {
	if !m.owned {
		m.img = m.img.clone()
		m.owned = true
	}
	return m.img
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumPUs returns the number of processing units in use.
func (m *Machine) NumPUs() int { return len(m.pus) }

// KernelCycles returns productive (non-stall) cycles executed.
func (m *Machine) KernelCycles() int64 { return m.kernelCycles }

// StallCycles returns cycles lost to reporting (flushes, overflow waits,
// summarization).
func (m *Machine) StallCycles() int64 { return m.stallCycles }

// Flushes returns the total whole-region flushes (w/o FIFO) or overflow
// events (w/ FIFO) across all PUs.
func (m *Machine) Flushes() int64 {
	var n int64
	for i := range m.pus {
		n += m.pus[i].flushes
	}
	return n
}

// Summaries returns the total in-place summarization events.
func (m *Machine) Summaries() int64 {
	var n int64
	for i := range m.pus {
		n += m.pus[i].summaries
	}
	return n
}

// Overhead returns the reporting slowdown (kernel+stall)/kernel — the
// Table 4 metric.
func (m *Machine) Overhead() float64 {
	if m.kernelCycles == 0 {
		return 1
	}
	return float64(m.kernelCycles+m.stallCycles) / float64(m.kernelCycles)
}

// ActiveStates appends the automaton state IDs of every currently active
// column across PUs.
func (m *Machine) ActiveStates(dst []automata.StateID) []automata.StateID {
	for i, a := range m.active {
		dst = appendStates(dst, m.place.StateAt[i], a)
	}
	return dst
}

// Rewind clears the active states, so the next cycle starts from an empty
// set as a cold machine's does, and keeps everything else: the cycle count,
// the report region and the counters. A prefiltered run rewinds between its
// candidate windows and stays one device run.
func (m *Machine) Rewind() { clear(m.active) }

// Reset returns the machine to its post-configuration state.
func (m *Machine) Reset() {
	clear(m.active)
	clear(m.region)
	clear(m.pus)
	m.resident = 0
	m.kernelCycles = 0
	m.stallCycles = 0
	m.drainCredit = 0
	m.drainRR = 0
	m.energy = EnergyCounters{}
}

// Step executes one cycle on a vector of Rate units (funcsim.Pad allowed)
// and appends the active reporting states to dst, returning it.
//
// The loops work on whole words of the dense per-PU vectors and touch only
// what a cycle needs: crossbar rows of active columns, global switches of
// active columns that have any, match rows of PUs with a live enable. What
// the device would have done regardless — one Port-2 match read per PU per
// cycle — is still what the energy counters record.
func (m *Machine) Step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	if m.mode != AutomataMode {
		panic("core: Step while in normal (cache) mode")
	}
	rate := m.cfg.Rate
	if len(vec) != rate {
		panic(fmt.Sprintf("core: vector length %d != rate %d", len(vec), rate))
	}
	if m.cfg.FIFO {
		m.drain()
	}
	img := m.img
	npu := img.npu
	act, en := m.active[:npu], m.enables[:npu]
	cycle := m.kernelCycles
	injectAll := (cycle*int64(rate))%int64(m.a.SymbolUnits) == 0
	injectData := cycle == 0 && !m.noStartData

	// Enables from the previous active vectors: start enables, the local
	// crossbar (one row per active column), then the global switches.
	xbarReads := 0
	for i := range act {
		var e0, e1, e2, e3 uint64
		if injectAll {
			s := &img.startAll[i]
			e0, e1, e2, e3 = s[0], s[1], s[2], s[3]
		}
		if injectData {
			s := &img.startData[i]
			e0, e1, e2, e3 = e0|s[0], e1|s[1], e2|s[2], e3|s[3]
		}
		if a := &act[i]; a[0]|a[1]|a[2]|a[3] != 0 {
			xbar := img.xbar[i*ColsPerSubarray:][:ColsPerSubarray]
			for w, x := range a {
				for ; x != 0; x &= x - 1 {
					r := &xbar[w<<6|bits.TrailingZeros64(x)]
					e0, e1, e2, e3 = e0|r[0], e1|r[1], e2|r[2], e3|r[3]
					xbarReads++
				}
			}
		}
		en[i] = bitvec.V256{e0, e1, e2, e3}
	}
	m.energy.MatchReads += int64(npu)
	m.energy.XbarRowReads += int64(xbarReads)
	if len(img.gxOut) > 0 {
		for i := range act {
			hot := act[i].And(img.gxCols[i])
			if !hot.Any() {
				continue
			}
			starts := img.gxStart[i*ColsPerSubarray:][:ColsPerSubarray+1]
			for w, x := range hot {
				for ; x != 0; x &= x - 1 {
					src := w<<6 | bits.TrailingZeros64(x)
					for _, out := range img.gxOut[starts[src]:starts[src+1]] {
						en[out.pu] = en[out.pu].Or(out.cols)
					}
				}
			}
		}
	}

	// Match (Port 2 multi-row activation: the group rows selected by the
	// 4:16 decoders, ANDed; a padding unit selects the don't-care row) and
	// activate, then report (Port 1) — pipelined with matching in the
	// device, so one pass per PU here; stalls are accounted when a region
	// fills.
	var rows [4][]bitvec.V256
	for g, u := range vec {
		if u < 0 {
			rows[g] = img.dontCare[g*npu:][:npu]
		} else {
			rows[g] = img.match[(RowsPerNibble*g+int(u))*npu:][:npu]
		}
	}
	stalledThisCycle := false
	for i := range act {
		e := &en[i]
		a0, a1, a2, a3 := e[0], e[1], e[2], e[3]
		if a0|a1|a2|a3 == 0 {
			act[i] = bitvec.V256{}
			continue
		}
		for g := 0; g < rate; g++ {
			r := &rows[g][i]
			a0, a1, a2, a3 = a0&r[0], a1&r[1], a2&r[2], a3&r[3]
		}
		act[i] = bitvec.V256{a0, a1, a2, a3}
		r := &img.reportMask[i]
		a0, a1, a2, a3 = a0&r[0], a1&r[1], a2&r[2], a3&r[3]
		if a0|a1|a2|a3 == 0 {
			continue
		}
		rep := bitvec.V256{a0, a1, a2, a3}
		m.storeReport(i, rep, cycle, &stalledThisCycle)
		dst = appendStates(dst, m.place.StateAt[i], rep)
	}
	m.kernelCycles++
	if m.tel != nil {
		m.tel.kernelCycles.Inc()
	}
	return dst
}

// appendStates appends the automaton states placed at the set columns of v.
func appendStates(dst []automata.StateID, stateAt []int32, v bitvec.V256) []automata.StateID {
	for w, x := range v {
		for ; x != 0; x &= x - 1 {
			if s := stateAt[w<<6|bits.TrailingZeros64(x)]; s >= 0 {
				dst = append(dst, automata.StateID(s))
			}
		}
	}
	return dst
}

// storeReport writes one report entry (preceded by stride markers when the
// cycle counter wrapped) into PU i's region, handling full-region events.
//
// A stride marker is an entry with all-zero report bits whose metadata
// holds a stride *delta*; the host accumulates deltas while reading, so
// strides larger than the metadata field chain across several markers
// ("the stride value is concatenated with all zeros ... written in the
// metadata + report data region", Section 7.1). A region flush resets the
// chain: the next report rewrites the full stride so the freshly cleared
// region decodes from zero.
func (m *Machine) storeReport(i int, rep bitvec.V256, cycle int64, stalled *bool) {
	u := &m.pus[i]
	mask := int64(1)<<uint(m.cfg.MetadataBits) - 1
	stride := cycle >> uint(m.cfg.MetadataBits)
	// Invariant: a marker chain that could never fit (tiny metadata width vs.
	// enormous silent gaps) is refused by whoever feeds the machine, which
	// checks its input against Config.MaxCycles before stepping.
	if cycle >= m.maxCycles {
		panic(fmt.Sprintf("core: MetadataBits=%d too small to mark stride %d within a %d-entry region",
			m.cfg.MetadataBits, stride, m.capacity))
	}
	for {
		m.ensureSpace(i, stalled)
		// ensureSpace may have flushed the region, which restarts the
		// marker chain from zero (lastStride == -1); derive the next
		// chunk only after space is secured.
		cur := max(u.lastStride, 0)
		if cur >= stride {
			break
		}
		chunk := min(stride-cur, mask)
		m.writeEntry(i, bitvec.V256{}, chunk)
		m.energy.ReportWrites++
		u.strideMarkers++
		u.lastStride = cur + chunk
		if m.tel != nil {
			m.tel.puMarkers.Inc(i)
			m.tel.event(telemetry.EventStrideMarker, cycle, 0, i, u.occupied)
		}
	}
	// The loop exits immediately after an ensureSpace that wrote nothing,
	// so one free slot is guaranteed for the data entry.
	m.writeEntry(i, rep, cycle&mask)
	m.energy.ReportWrites++
	u.reportEntries++
	u.lastStride = stride
	if m.tel != nil {
		m.tel.puEntries.Inc(i)
		m.tel.occupancy.Observe(int64(u.occupied))
		m.tel.event(telemetry.EventReportWrite, cycle, 0, i, u.occupied)
	}
}

// ensureSpace guarantees one free entry slot in PU i's region, performing
// the configured full-region action (flush, forced drain, or
// summarization) and accounting its stall. The stall window is shared by
// every region filling in the same cycle and charged to the first full
// PU, so the per-PU stallCycles fields sum to the aggregate exactly.
func (m *Machine) ensureSpace(i int, stalled *bool) {
	u := &m.pus[i]
	if u.occupied < m.capacity {
		return
	}
	var charged int64
	var kind telemetry.EventKind
	switch {
	case m.cfg.SummarizeOnFull:
		batches := m.summarize(i)
		m.clearRegion(i)
		u.summaries++
		kind = telemetry.EventSummarize
		if !*stalled {
			charged = int64(batches * m.cfg.SummarizeStallCycles)
		}
	case m.cfg.FIFO:
		// Overflow: wait for the drain to free one entry. Concurrent
		// overflows share the wait window.
		u.occupied--
		m.resident--
		u.flushes++
		m.energy.ExportedBits += int64(m.cfg.EntryBits())
		kind = telemetry.EventOverflow
		if !*stalled {
			charged = int64((m.cfg.EntryBits() + m.cfg.ExportBitsPerCycle - 1) / m.cfg.ExportBitsPerCycle)
		}
	default:
		// Whole-region flush; all full PUs flush in the same stall
		// window since each drains through its own Port 1.
		m.clearRegion(i)
		u.flushes++
		region := m.cfg.ReportRows() * ColsPerSubarray
		m.energy.ExportedBits += int64(region)
		kind = telemetry.EventFlush
		if !*stalled {
			charged = int64((region + m.cfg.ExportBitsPerCycle - 1) / m.cfg.ExportBitsPerCycle)
		}
	}
	if charged > 0 {
		m.stallCycles += charged
		u.stallCycles += charged
		*stalled = true
	}
	if m.tel != nil {
		if kind == telemetry.EventSummarize {
			m.tel.puSummaries.Inc(i)
		} else {
			m.tel.puFlushes.Inc(i)
		}
		if charged > 0 {
			m.tel.stallCycles.Add(charged)
			m.tel.puStalls.Add(i, charged)
		}
		m.tel.event(kind, m.kernelCycles, charged, i, u.occupied)
	}
}

// drain models the FIFO strategy: the host continuously reads entries from
// the heads of occupied regions through Port 1 while matching proceeds on
// Port 2, sharing ExportBitsPerCycle across PUs round-robin.
func (m *Machine) drain() {
	m.drainCredit += int64(m.cfg.ExportBitsPerCycle)
	entry := int64(m.cfg.EntryBits())
	for m.drainCredit >= entry {
		if m.resident == 0 {
			// Nothing to drain; credit does not bank indefinitely.
			m.drainCredit = entry
			return
		}
		target := m.drainRR
		for m.pus[target].occupied == 0 {
			if target++; target == len(m.pus) {
				target = 0
			}
		}
		m.pus[target].occupied--
		m.resident--
		m.drainCredit -= entry
		m.energy.ExportedBits += entry
		if m.drainRR = target + 1; m.drainRR == len(m.pus) {
			m.drainRR = 0
		}
		if m.tel != nil {
			m.tel.drained.Inc()
		}
	}
}

// Summarize performs on-demand report summarization of every PU
// (Section 5.1.2: the host may request it at any time; matching stalls for
// the batch NOR cycles) and returns, per automaton state ID, whether that
// report state has reported since the last summarize/flush. The region is
// cleared afterwards.
func (m *Machine) Summarize() map[automata.StateID]bool {
	out := make(map[automata.StateID]bool)
	maxBatches, maxPU := 0, 0
	for i := range m.pus {
		u := &m.pus[i]
		batches := m.summarize(i)
		if batches > maxBatches {
			maxBatches = batches
			maxPU = i
		}
		for _, s := range appendStates(nil, m.place.StateAt[i], u.summary) {
			out[s] = true
		}
		u.summary = bitvec.V256{}
		m.clearRegion(i)
		u.summaries++
		if m.tel != nil {
			m.tel.puSummaries.Inc(i)
		}
	}
	// All PUs summarize in parallel; the stall window is the longest
	// batch chain, attributed to the PU that needed it.
	charged := int64(maxBatches * m.cfg.SummarizeStallCycles)
	m.stallCycles += charged
	if len(m.pus) > 0 {
		m.pus[maxPU].stallCycles += charged
	}
	if m.tel != nil {
		if charged > 0 {
			m.tel.stallCycles.Add(charged)
			m.tel.puStalls.Add(maxPU, charged)
		}
		m.tel.event(telemetry.EventSummarize, m.kernelCycles, charged, maxPU, 0)
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
func (m *Machine) ReadReports(i int) []ReportRecord {
	var out []ReportRecord
	var stride int64
	mBits := m.cfg.ReportColumns
	for e := 0; e < m.pus[i].occupied; e++ {
		row, base := m.entryAt(i, e)
		var states []automata.StateID
		for k := 0; k < mBits; k++ {
			if row.Get(base + k) {
				col := ColsPerSubarray - mBits + k
				if s := m.place.StateAt[i][col]; s >= 0 {
					states = append(states, automata.StateID(s))
				}
			}
		}
		var meta int64
		for j := 0; j < m.cfg.MetadataBits; j++ {
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
		out = append(out, ReportRecord{Cycle: stride<<uint(m.cfg.MetadataBits) | meta, States: states})
	}
	return out
}
