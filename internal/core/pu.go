package core

import "sunder/internal/bitvec"

// pu is the execution state of one processing unit's report region: the
// local write counter of Equation 1, occupancy bookkeeping and statistics.
// The unit's subarrays are stored column-wise across the machine instead:
// match rows and the local crossbar in the shared image, the active vector
// in Machine.active, the report rows in Machine.region. Bit i of a V256 is
// column i, i.e. state i of the PU.
type pu struct {
	counter    int // next entry slot (row-major within the region)
	occupied   int // entries currently stored (unread)
	lastStride int64
	// summary accumulates per-report-column "reported since last
	// summarize" bits when summarization is used.
	summary bitvec.V256

	// Per-PU statistics. flushes counts whole-region flushes (or FIFO
	// overflow waits); the rest feed Machine.PerPU and the telemetry
	// layer. They are updated only on the report path, so they stay off
	// the per-cycle hot path.
	flushes       int64
	summaries     int64
	reportEntries int64 // data entries written
	strideMarkers int64 // stride-marker entries written
	stallCycles   int64 // stall cycles attributed to this PU's region
	peakOccupied  int   // high-water mark of region occupancy
}

// regionOf returns PU i's report rows.
func (m *Machine) regionOf(i int) []bitvec.V256 {
	rr := m.cfg.ReportRows()
	return m.region[i*rr:][:rr]
}

// row resolves row r of PU i's match/report subarray to where it is
// stored: a match row in the configuration image — taken private first
// when the caller is going to write it — a report row in the region.
func (m *Machine) row(i, r int, write bool) *bitvec.V256 {
	if mr := m.cfg.MatchRows(); r >= mr {
		return &m.regionOf(i)[r-mr]
	}
	if write {
		return m.own().matchRow(i, r)
	}
	return m.img.matchRow(i, r)
}

// entryAt locates entry slot of PU i: its region row and bit offset.
func (m *Machine) entryAt(i, slot int) (row *bitvec.V256, base int) {
	epr := m.entriesPerRow
	return &m.regionOf(i)[slot/epr], slot % epr * m.cfg.EntryBits()
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

// writeEntry stores the m-bit report vector (the last m columns of rep)
// plus metadata at PU i's local counter position through Port 1: one
// shifted word for entries up to 64 bits, bit by bit for wider ones. It
// assumes capacity was checked by the caller.
func (m *Machine) writeEntry(i int, rep bitvec.V256, meta int64) {
	u := &m.pus[i]
	row, base := m.entryAt(i, u.counter)
	mc, eb := m.cfg.ReportColumns, m.cfg.EntryBits()
	if eb <= 64 {
		putBits(row, base, eb, rep[3]>>uint(64-mc)|uint64(meta)<<uint(mc))
	} else {
		for k := 0; k < mc; k++ {
			setBit(row, base+k, rep.Get(ColsPerSubarray-mc+k))
		}
		for j := 0; j < m.cfg.MetadataBits; j++ {
			setBit(row, base+mc+j, j < 64 && meta>>uint(j)&1 != 0)
		}
	}
	u.counter++
	if u.counter == m.capacity {
		u.counter = 0
	}
	u.occupied++
	m.resident++
	if u.occupied > u.peakOccupied {
		u.peakOccupied = u.occupied
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
func (m *Machine) clearRegion(i int) {
	u := &m.pus[i]
	clear(m.regionOf(i))
	m.resident -= u.occupied
	u.counter = 0
	u.occupied = 0
	u.lastStride = -1
}

// summarize performs the column-wise NOR of PU i's report region through
// Port 2 in 16-row batches (Section 5.1.2) and folds the result into the
// per-column summary. It returns the number of batches (each stalls
// matching for SummarizeStallCycles).
//
// The hardware's wired-NOR yields the complement of the column-wise OR;
// the host inverts it, so the model records the OR directly.
func (m *Machine) summarize(i int) int {
	cfg := &m.cfg
	var or bitvec.V256
	for _, row := range m.regionOf(i) {
		or = or.Or(row)
	}
	// Collapse per-entry-slot report bits back onto report columns: slot
	// k of any entry corresponds to report column 256-m+k.
	mc := cfg.ReportColumns
	summary := &m.pus[i].summary
	for slot := 0; slot < cfg.EntriesPerRow(); slot++ {
		base := slot * cfg.EntryBits()
		for k := 0; k < mc; k++ {
			if or.Get(base + k) {
				summary.Set(ColsPerSubarray - mc + k)
			}
		}
	}
	return (cfg.ReportRows() + cfg.SummarizeBatchRows - 1) / cfg.SummarizeBatchRows
}
