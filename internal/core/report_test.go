package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/regex"
	"sunder/internal/report"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// The device's report region, driven end to end: a machine's report stream
// fed to its report model (report.Sunder), as every device path runs it.

// runModel steps m over units and feeds a report model of m's device — its
// configuration and placement — the run's report stream, finished at the
// run's end.
func runModel(m *core.Machine, units []funcsim.Unit, record bool) (*core.Result, *report.Sunder) {
	md := report.NewSunder(m.Placement(), m.Config())
	res := m.Run(units, core.RunOptions{RecordEvents: record, OnReportCycle: md.OnReportCycle})
	md.Finish(res.KernelCycles)
	return res, md
}

// regionPlacement places one report state on every report column of npu
// PUs: state pu*m+k at column 256-m+k of PU pu.
func regionPlacement(cfg core.Config, npu int) *mapping.Placement {
	m := cfg.ReportColumns
	place := &mapping.Placement{ReportColumns: m, NumPUs: npu, StateAt: make([][]int32, npu)}
	for i := range place.StateAt {
		place.StateAt[i] = make([]int32, core.ColsPerSubarray)
		for c := range place.StateAt[i] {
			place.StateAt[i][c] = -1
		}
		for k := 0; k < m; k++ {
			place.StateAt[i][core.ColsPerSubarray-m+k] = int32(len(place.Of))
			place.Of = append(place.Of, mapping.Loc{PU: i, Col: core.ColsPerSubarray - m + k})
		}
	}
	return place
}

// regionState is the state regionPlacement put at report column k of PU pu.
func regionState(cfg core.Config, pu, k int) automata.StateID {
	return automata.StateID(pu*cfg.ReportColumns + k)
}

// entryBits reads bits [off, off+n) of row as an integer.
func entryBits(row bitvec.V256, off, n int) int64 {
	var v int64
	for j := 0; j < n; j++ {
		if row.Get(off + j) {
			v |= 1 << uint(j)
		}
	}
	return v
}

// TestReadReportsDecodes checks the memory-mapped report region: entries
// written in place decode back to the exact report cycles and states.
func TestReadReportsDecodes(t *testing.T) {
	cfg := core.DefaultConfig(2)
	m, _ := core.Build(t, []regex.Pattern{{Expr: `ab`, Code: 7}}, cfg)
	input := []byte("abxxabxxxxab")
	got, md := runModel(m, funcsim.BytesToUnits(input, 4), true)
	if got.Reports != 3 {
		t.Fatalf("reports = %d, want 3", got.Reports)
	}
	var recs []report.ReportRecord
	for i := 0; i < m.NumPUs(); i++ {
		recs = append(recs, md.ReadReports(i)...)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	wantCycles := map[int64]bool{}
	for _, ev := range got.Events {
		wantCycles[ev.Cycle] = true
	}
	for _, r := range recs {
		if !wantCycles[r.Cycle] {
			t.Errorf("decoded cycle %d not in %v", r.Cycle, wantCycles)
		}
		if len(r.States) != 1 {
			t.Errorf("record states = %v", r.States)
		}
	}
}

// TestStrideMarkers runs past the metadata counter range and checks cycle
// reconstruction still works.
func TestStrideMarkers(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.MetadataBits = 6 // wraps every 64 cycles
	m, _ := core.Build(t, []regex.Pattern{{Expr: `ab`, Code: 1}}, cfg)
	// Reports at byte cycles 1, then around 200, then 400.
	input := make([]byte, 500)
	for i := range input {
		input[i] = 'x'
	}
	copy(input[0:], "ab")
	copy(input[200:], "ab")
	copy(input[400:], "ab")
	got, md := runModel(m, funcsim.BytesToUnits(input, 4), true)
	if got.Reports != 3 {
		t.Fatalf("reports = %d", got.Reports)
	}
	var recs []report.ReportRecord
	for i := 0; i < m.NumPUs(); i++ {
		recs = append(recs, md.ReadReports(i)...)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	want := map[int64]bool{}
	for _, ev := range got.Events {
		want[ev.Cycle] = true
	}
	for _, r := range recs {
		if !want[r.Cycle] {
			t.Errorf("reconstructed cycle %d wrong (want one of %v)", r.Cycle, want)
		}
	}
}

// TestFlushOnFull drives a region to overflow without FIFO and checks
// flush/stall accounting.
func TestFlushOnFull(t *testing.T) {
	cfg := core.DefaultConfig(4)
	m, _ := core.Build(t, []regex.Pattern{{Expr: `a`, Code: 1}}, cfg)
	capacity := cfg.RegionCapacity()
	// 'a' reports every byte; at rate 4 every cycle carries 2 reports but
	// one region entry. Run enough cycles to overflow twice.
	n := (capacity + 2) * 2 * 2 // bytes
	input := make([]byte, n)
	for i := range input {
		input[i] = 'a'
	}
	run, md := runModel(m, funcsim.BytesToUnits(input, 4), false)
	res := md.Result()
	if res.Flushes < 2 {
		t.Fatalf("flushes = %d, want >= 2 (capacity %d, cycles %d)", res.Flushes, capacity, run.KernelCycles)
	}
	wantStallPer := int64((cfg.ReportRows()*core.ColsPerSubarray + cfg.ExportBitsPerCycle - 1) / cfg.ExportBitsPerCycle)
	if res.StallCycles != res.Flushes*wantStallPer {
		t.Errorf("stalls = %d, want %d per flush × %d", res.StallCycles, wantStallPer, res.Flushes)
	}
	if res.Overhead(run.KernelCycles) <= 1.0 {
		t.Error("overhead not above 1 despite flushes")
	}
}

// TestFIFOReducesStalls compares FIFO and non-FIFO on the same overflow
// load: the FIFO drain must cut stalls (Table 4's two Sunder columns).
func TestFIFOReducesStalls(t *testing.T) {
	mk := func(fifo bool) report.Result {
		cfg := core.DefaultConfig(4)
		cfg.FIFO = fifo
		m, _ := core.Build(t, []regex.Pattern{{Expr: `a`, Code: 1}}, cfg)
		input := make([]byte, 40000)
		for i := range input {
			input[i] = 'a'
		}
		_, md := runModel(m, funcsim.BytesToUnits(input, 4), false)
		return md.Result()
	}
	plain := mk(false)
	fifo := mk(true)
	if plain.Flushes == 0 {
		t.Fatal("load did not overflow")
	}
	if fifo.StallCycles >= plain.StallCycles {
		t.Errorf("FIFO stalls %d not below plain %d", fifo.StallCycles, plain.StallCycles)
	}
}

// TestFIFOKeepsUpWithModerateLoad: at a report rate below the drain
// bandwidth the FIFO never overflows — the "zero stalls for 95% of
// applications" claim.
func TestFIFOKeepsUpWithModerateLoad(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.FIFO = true
	m, _ := core.Build(t, []regex.Pattern{{Expr: `zq`, Code: 1}}, cfg)
	input := make([]byte, 60000)
	for i := range input {
		input[i] = 'x'
	}
	for i := 0; i+20 < len(input); i += 20 { // report every 10th cycle
		copy(input[i:], "zq")
	}
	run, md := runModel(m, funcsim.BytesToUnits(input, 4), false)
	res := md.Result()
	if res.Flushes != 0 || res.StallCycles != 0 {
		t.Errorf("moderate load stalled: flushes=%d stalls=%d", res.Flushes, res.StallCycles)
	}
	if res.Overhead(run.KernelCycles) != 1.0 {
		t.Errorf("overhead = %v", res.Overhead(run.KernelCycles))
	}
}

// TestSummarizeOnFull checks the Figure 10 summarization mode: far less
// stall than flushing, with summaries recorded.
func TestSummarizeOnFull(t *testing.T) {
	mk := func(summarize bool) *report.Sunder {
		cfg := core.DefaultConfig(4)
		cfg.SummarizeOnFull = summarize
		m, _ := core.Build(t, []regex.Pattern{{Expr: `a`, Code: 1}}, cfg)
		input := make([]byte, 30000)
		for i := range input {
			input[i] = 'a'
		}
		_, md := runModel(m, funcsim.BytesToUnits(input, 4), false)
		return md
	}
	flush := mk(false)
	sum := mk(true)
	if sum.Result().Summaries == 0 {
		t.Fatal("no summaries recorded")
	}
	if sum.Result().StallCycles >= flush.Result().StallCycles {
		t.Errorf("summarize stalls %d not below flush stalls %d", sum.Result().StallCycles, flush.Result().StallCycles)
	}
}

// TestSummarizeAPI checks on-demand summarization reports exactly the
// states that reported since the last summarize.
func TestSummarizeAPI(t *testing.T) {
	cfg := core.DefaultConfig(2)
	m, ua := core.Build(t, []regex.Pattern{{Expr: `ab`, Code: 1}, {Expr: `cd`, Code: 2}}, cfg)
	_, md := runModel(m, funcsim.BytesToUnits([]byte("abxxab"), 4), false)
	got := md.Summarize()
	// Exactly the `ab` report states must be flagged.
	for s := range got {
		found := false
		for _, r := range ua.States[s].Reports {
			if r.Code == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("summary flagged wrong state %d", s)
		}
	}
	if len(got) == 0 {
		t.Fatal("summary empty")
	}
	if md.Result().StallCycles == 0 {
		t.Error("summarize did not stall")
	}
	// After summarize, the region is clear: a new summarize is empty.
	if len(md.Summarize()) != 0 {
		t.Error("second summarize not empty")
	}
}

// TestWriteReportEntryLayout pins Equation 1's layout: m report bits then
// n metadata bits per entry, entries packed along a row, the next entry
// in the next row once a row is full.
func TestWriteReportEntryLayout(t *testing.T) {
	cfg := core.DefaultConfig(4) // m=12, n=20, entry=32 bits, 8 per row
	md := report.NewSunder(regionPlacement(cfg, 1), cfg)
	// Report columns k=0 and k=11, at a cycle whose stamp is 0xABCDE.
	md.OnReportCycle(0xABCDE, []automata.StateID{regionState(cfg, 0, 0), regionState(cfg, 0, 11)})

	rows := md.Rows(0)
	if !rows[0].Get(0) || !rows[0].Get(11) {
		t.Error("report bits not at expected positions")
	}
	if rows[0].Get(1) {
		t.Error("unset report column leaked")
	}
	if meta := entryBits(rows[0], 12, cfg.MetadataBits); meta != 0xABCDE {
		t.Errorf("metadata = %#x", meta)
	}
	if p := md.PerPU()[0]; p.Occupancy != 1 || p.ReportEntries != 1 || p.StrideMarkers != 0 {
		t.Errorf("per-PU after one entry: %+v", p)
	}

	// Second entry lands in the same row at bit offset 32.
	k0 := []automata.StateID{regionState(cfg, 0, 0)}
	md.OnReportCycle(0xABCDF, k0)
	if !rows[0].Get(32) || entryBits(rows[0], 44, cfg.MetadataBits) != 0xABCDF {
		t.Error("second entry not packed at offset 32")
	}

	// Entry 8 rolls to the next row.
	for c := int64(0xABCE0); c < 0xABCE7; c++ {
		md.OnReportCycle(c, k0)
	}
	if !rows[1].Get(0) || entryBits(rows[1], 12, cfg.MetadataBits) != 0xABCE6 {
		t.Error("ninth entry not in the next row")
	}
}

// TestCounterWrapsAtCapacity: the local write counter runs around the
// region. Without FIFO a full region holds exactly its capacity; with the
// FIFO drain keeping occupancy low, entry capacity+1 lands in slot 0.
func TestCounterWrapsAtCapacity(t *testing.T) {
	cfg := core.DefaultConfig(4)
	capacity := cfg.RegionCapacity()
	st := []automata.StateID{regionState(cfg, 0, cfg.ReportColumns-1)}

	md := report.NewSunder(regionPlacement(cfg, 1), cfg)
	for c := 0; c < capacity; c++ {
		md.OnReportCycle(int64(c), st)
	}
	if p := md.PerPU()[0]; p.Occupancy != capacity || p.Flushes != 0 {
		t.Errorf("full region: %+v, want occupancy %d and no flush", p, capacity)
	}
	md.OnReportCycle(int64(capacity), st)
	if p := md.PerPU()[0]; p.Occupancy != 1 || p.Flushes != 1 {
		t.Errorf("past capacity: %+v, want one flush and one entry", p)
	}

	cfg.FIFO = true
	md = report.NewSunder(regionPlacement(cfg, 1), cfg)
	for c := 0; c <= capacity; c++ {
		md.OnReportCycle(int64(c), st)
	}
	row0 := md.Rows(0)[0]
	if !row0.Get(cfg.ReportColumns-1) || entryBits(row0, cfg.ReportColumns, cfg.MetadataBits) != int64(capacity) {
		t.Errorf("entry %d not written to slot 0 (stamp %d)", capacity+1, entryBits(row0, cfg.ReportColumns, cfg.MetadataBits))
	}
	if p := md.PerPU()[0]; p.Flushes != 0 || p.Occupancy > 1 {
		t.Errorf("drained FIFO region: %+v", p)
	}
}

// TestClearRegionInvalidatesStride: a flush clears the region and restarts
// the stride-marker chain, so the fresh region decodes from zero; other
// PUs' regions are untouched.
func TestClearRegionInvalidatesStride(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.MetadataBits = 5 // a stride marker every 32 cycles
	md := report.NewSunder(regionPlacement(cfg, 2), cfg)
	s0, s1 := regionState(cfg, 0, 0), regionState(cfg, 1, 0)
	md.OnReportCycle(40, []automata.StateID{s0})
	c := int64(40)
	for ; md.PerPU()[1].Flushes == 0; c++ {
		md.OnReportCycle(c, []automata.StateID{s1})
	}
	c--
	p := md.PerPU()[1]
	wantMarkers := int((c>>5 + 30) / 31) // the full stride, in chunks of 31
	if p.Occupancy != wantMarkers+1 {
		t.Errorf("after the flush PU 1 holds %d entries, want %d markers and the entry", p.Occupancy, wantMarkers)
	}
	if got := md.ReadReports(1); len(got) != 1 || got[0].Cycle != c {
		t.Errorf("fresh region decodes %+v, want cycle %d", got, c)
	}
	epr := cfg.EntriesPerRow()
	for r, row := range md.Rows(1)[(p.Occupancy+epr-1)/epr:] {
		if row.Any() {
			t.Fatalf("row %d not cleared", r)
		}
	}
	if p0 := md.PerPU()[0]; p0.Occupancy != 2 || !md.Rows(0)[0].Any() {
		t.Errorf("flushing PU 1 disturbed PU 0: %+v", p0)
	}
}

// TestSummarizeCollapsesSlots: entries in different slots of a row fold
// onto their report columns, and the summarize stalls for one batch NOR
// per 16 rows.
func TestSummarizeCollapsesSlots(t *testing.T) {
	cfg := core.DefaultConfig(4)
	md := report.NewSunder(regionPlacement(cfg, 1), cfg)
	a, b := regionState(cfg, 0, 0), regionState(cfg, 0, 6)
	md.OnReportCycle(1, []automata.StateID{a})
	md.OnReportCycle(2, []automata.StateID{b})
	got := md.Summarize()
	if len(got) != 2 || !got[a] || !got[b] {
		t.Errorf("summary = %v, want states %d and %d", got, a, b)
	}
	batches := (cfg.ReportRows() + cfg.SummarizeBatchRows - 1) / cfg.SummarizeBatchRows
	if want := int64(batches * cfg.SummarizeStallCycles); md.Result().StallCycles != want {
		t.Errorf("stall = %d, want %d batches × %d", md.Result().StallCycles, batches, cfg.SummarizeStallCycles)
	}
}

// TestFIFODrainRoundRobin: with several PUs holding unread entries, the
// shared drain serves them all.
func TestFIFODrainRoundRobin(t *testing.T) {
	// Two independent always-reporting patterns in different PUs: force
	// multi-PU by exceeding one PU's report budget with many patterns.
	var ps []regex.Pattern
	for i := 0; i < 32; i++ {
		expr := string(rune('a'+i%4)) + string(rune('a'+(i/4)%4))
		ps = append(ps, regex.Pattern{Expr: expr, Code: int32(i)})
	}
	cfg := core.DefaultConfig(2)
	cfg.FIFO = true
	m, _ := core.Build(t, ps, cfg)
	if m.NumPUs() < 2 {
		t.Skip("placement fit one PU; round-robin not exercised")
	}
	input := make([]byte, 8000)
	for i := range input {
		input[i] = byte('a' + i%4)
	}
	res, md := runModel(m, funcsim.BytesToUnits(input, 4), false)
	if res.Reports == 0 {
		t.Fatal("no reports generated")
	}
	// With continuous drain the device must not accumulate stalls at
	// this rate.
	if st := md.Result().StallCycles; st != 0 {
		t.Errorf("stalls = %d", st)
	}
}

// TestReportEntryRoundTrip writes entries of every interesting shape —
// word-aligned, straddling a 64-bit word, exactly 64 bits, wider than a
// word — through the model and checks the stored bits against a
// bit-by-bit encoding of the entries Section 7.1 prescribes (stride-marker
// chains included), and the host-side decode against what was fed.
func TestReportEntryRoundTrip(t *testing.T) {
	for _, shape := range []struct{ reportColumns, metadataBits int }{
		{12, 20}, // 32: the paper's entry, never straddles
		{12, 19}, // 31: every other entry straddles a word
		{7, 30},  // 37
		{1, 1},   // 2
		{20, 44}, // 64 exactly
		{33, 31}, // 64, report bits past the middle
		{63, 1},  // 64, one metadata bit
		{64, 1},  // 65: first width on the bit-by-bit path
		{40, 30}, // 70
		{12, 116},
		{100, 100},
	} {
		cfg := core.DefaultConfig(2)
		cfg.ReportColumns, cfg.MetadataBits = shape.reportColumns, shape.metadataBits
		md := report.NewSunder(regionPlacement(cfg, 2), cfg)
		rng := rand.New(rand.NewSource(int64(cfg.EntryBits())))
		n, mc, eb := cfg.MetadataBits, cfg.ReportColumns, cfg.EntryBits()
		mask := int64(-1)
		if n < 63 {
			mask = int64(1)<<uint(n) - 1
		}

		type entry struct {
			cols []int // report columns k; none for a stride marker
			meta int64
		}
		var want [2][]entry
		var fed [2][]report.ReportRecord
		var last [2]int64
		for c := int64(0); ; {
			i := rng.Intn(2)
			c += 1 + rng.Int63n(1<<min(n+2, 40))
			var e entry
			var states []automata.StateID
			for k := rng.Intn(3) + 1; k > 0; k-- {
				col := rng.Intn(mc)
				if !slices.Contains(e.cols, col) {
					e.cols = append(e.cols, col)
				}
			}
			slices.Sort(e.cols)
			for _, col := range e.cols {
				states = append(states, regionState(cfg, i, col))
			}
			e.meta = c & mask
			// The marker chain the stamp needs: deltas of at most mask.
			var chain []entry
			stride := int64(0)
			if n < 63 {
				stride = c >> uint(n)
			}
			for cur := last[i]; cur < stride; cur += min(stride-cur, mask) {
				chain = append(chain, entry{meta: min(stride-cur, mask)})
			}
			if len(want[i])+len(chain)+1 > cfg.RegionCapacity() {
				break
			}
			md.OnReportCycle(c, states)
			want[i] = append(append(want[i], chain...), e)
			fed[i] = append(fed[i], report.ReportRecord{Cycle: c, States: states})
			last[i] = stride
		}
		for i := range want {
			rows := make([]bitvec.V256, cfg.ReportRows())
			for slot, e := range want[i] {
				row, base := &rows[slot/cfg.EntriesPerRow()], slot%cfg.EntriesPerRow()*eb
				for _, col := range e.cols {
					row.Set(base + col)
				}
				for j := 0; j < n && j < 64; j++ {
					if e.meta>>uint(j)&1 != 0 {
						row.Set(base + mc + j)
					}
				}
			}
			if !slices.Equal(md.Rows(i), rows) {
				t.Fatalf("%+v: PU %d's stored entries differ from the bit-by-bit encoding", shape, i)
			}
			if got := md.ReadReports(i); !reflect.DeepEqual(got, fed[i]) {
				t.Fatalf("%+v: PU %d decodes %d records, fed %d; first got %+v", shape, i, len(got), len(fed[i]), got[:min(1, len(got))])
			}
		}
	}
}

// TestQuickReportRegionRoundTrip fuzzes the in-place report region: decoded
// records must reproduce exactly the report cycles that occurred, under
// random metadata widths (forcing stride markers).
func TestQuickReportRegionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := core.RandomByteAutomaton(seed)
		ua, err := transform.ToRate(a, 2)
		if err != nil {
			return false
		}
		budget, err := mapping.AutoReportColumns(ua, 12)
		if err != nil {
			return false
		}
		place, err := mapping.Place(ua, budget)
		if err != nil {
			return false
		}
		cfg := core.DefaultConfig(2)
		cfg.ReportColumns = budget
		cfg.MetadataBits = rng.Intn(10) + 4 // small: forces stride markers
		m, err := core.Configure(ua, place, cfg)
		if err != nil {
			return false
		}
		n := rng.Intn(300) + 10
		input := make([]byte, n)
		for i := range input {
			input[i] = byte('a' + rng.Intn(12))
		}
		res, md := runModel(m, funcsim.BytesToUnits(input, 4), true)
		if md.Result().Flushes > 0 {
			return true // flushed entries are gone by design; skip
		}
		wantCycles := map[int64]int{}
		for _, ev := range res.Events {
			wantCycles[ev.Cycle]++
		}
		got := 0
		for pu := 0; pu < m.NumPUs(); pu++ {
			for _, rec := range md.ReadReports(pu) {
				if _, ok := wantCycles[rec.Cycle]; !ok {
					t.Logf("seed %d: decoded cycle %d never reported", seed, rec.Cycle)
					return false
				}
				got++
			}
		}
		// One record per (PU, report cycle); must be ≥ report cycles and
		// ≤ total events.
		if int64(got) < res.ReportCycles || int64(got) > res.Reports {
			t.Logf("seed %d: %d records for %d report cycles / %d reports",
				seed, got, res.ReportCycles, res.Reports)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStrideDeltaRegression pins the fix for a bug found by the
// time-seeded quick tests: with a small metadata width, absolute stride
// values overflowed the marker field and decoded report cycles were
// reconstructed at stride 0. Markers now carry chained deltas; this seed
// reproduces the original failure (296 cycles at MetadataBits=4, strides
// up to 18 against a 15-value field).
func TestStrideDeltaRegression(t *testing.T) {
	seed := int64(-6365526899250777083)
	rng := rand.New(rand.NewSource(seed))
	a := core.RandomByteAutomaton(seed)
	ua, err := transform.ToRate(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := mapping.AutoReportColumns(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	place, err := mapping.Place(ua, budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.ReportColumns = budget
	cfg.MetadataBits = rng.Intn(10) + 4
	if cfg.MetadataBits != 4 {
		t.Fatalf("rng stream changed; MetadataBits = %d, want 4", cfg.MetadataBits)
	}
	m, err := core.Configure(ua, place, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := rng.Intn(300) + 10
	input := make([]byte, n)
	for i := range input {
		input[i] = byte('a' + rng.Intn(12))
	}
	res, md := runModel(m, funcsim.BytesToUnits(input, 4), true)
	if md.Result().Flushes > 0 {
		t.Skip("flushed; decode not applicable")
	}
	want := map[int64]bool{}
	for _, ev := range res.Events {
		want[ev.Cycle] = true
	}
	decoded := 0
	for pu := 0; pu < m.NumPUs(); pu++ {
		for _, rec := range md.ReadReports(pu) {
			if !want[rec.Cycle] {
				t.Errorf("pu %d decoded cycle %d that never reported", pu, rec.Cycle)
			}
			decoded++
		}
	}
	if int64(decoded) < res.ReportCycles {
		t.Errorf("decoded %d records for %d report cycles", decoded, res.ReportCycles)
	}
}

func TestEnergyCounters(t *testing.T) {
	cfg := core.DefaultConfig(2)
	m, _ := core.Build(t, []regex.Pattern{{Expr: `ab`, Code: 1}}, cfg)
	res, md := runModel(m, funcsim.BytesToUnits([]byte("abxxab"), 4), false)
	if res.Reports != 2 {
		t.Fatalf("reports = %d", res.Reports)
	}
	e := md.Energy(m.Energy())
	// One PU, 6 cycles: 6 match reads.
	if e.MatchReads != 6 {
		t.Errorf("match reads = %d, want 6", e.MatchReads)
	}
	// Two report entries, no stride markers (small cycle counts).
	if e.ReportWrites != 2 || m.Energy().ReportWrites != 0 {
		t.Errorf("report writes = %d (machine %d), want 2 (0)", e.ReportWrites, m.Energy().ReportWrites)
	}
	// Crossbar activity follows the active states across the run.
	if e.XbarRowReads == 0 {
		t.Error("no crossbar activity recorded")
	}
	if e.EnergyPJ() <= 0 {
		t.Error("non-positive energy")
	}
	if e.PerByte(res.KernelCycles, cfg.Rate) <= 0 {
		t.Error("non-positive energy per byte")
	}
	m.Reset()
	md.Reset()
	if md.Energy(m.Energy()) != (core.EnergyCounters{}) {
		t.Error("Reset did not clear energy counters")
	}
	if m.Energy().PerByte(m.KernelCycles(), cfg.Rate) != 0 {
		t.Error("energy per byte after reset")
	}
}

func TestEnergyReportingCost(t *testing.T) {
	// The same cycle count with dense reporting must cost more energy
	// than with no reporting.
	input := make([]byte, 4000)
	for i := range input {
		input[i] = 'a'
	}
	dense, _ := core.Build(t, []regex.Pattern{{Expr: `a`, Code: 1}}, core.DefaultConfig(4))
	denseRes, denseMD := runModel(dense, funcsim.BytesToUnits(input, 4), false)
	quiet, _ := core.Build(t, []regex.Pattern{{Expr: `zz`, Code: 1}}, core.DefaultConfig(4))
	quietRes, quietMD := runModel(quiet, funcsim.BytesToUnits(input, 4), false)
	if denseRes.Reports == 0 || quietRes.Reports != 0 {
		t.Fatal("setup wrong")
	}
	denseE, quietE := denseMD.Energy(dense.Energy()), quietMD.Energy(quiet.Energy())
	if denseE.EnergyPJ() <= quietE.EnergyPJ() {
		t.Errorf("dense reporting energy %v not above quiet %v", denseE.EnergyPJ(), quietE.EnergyPJ())
	}
	// Flush exports show up as exported bits.
	if denseMD.Result().Flushes > 0 && denseE.ExportedBits == 0 {
		t.Error("flushes recorded no exported bits")
	}
}

// denseLoad builds a machine whose single pattern reports on every input
// byte — the densest reporting load, guaranteed to overflow the region —
// plus an input long enough for several full-region events.
func denseLoad(t *testing.T, mut func(*core.Config)) (*core.Machine, []funcsim.Unit) {
	t.Helper()
	cfg := core.DefaultConfig(4)
	if mut != nil {
		mut(&cfg)
	}
	m, _ := core.Build(t, []regex.Pattern{{Expr: `a`, Code: 1}}, cfg)
	n := (cfg.RegionCapacity() + 2) * 2 * 3
	input := make([]byte, n)
	for i := range input {
		input[i] = 'a'
	}
	return m, funcsim.BytesToUnits(input, 4)
}

// TestPerPUSumsMatchAggregates checks the invariant behind the -metrics
// dump: per-PU statistics sum to the model's aggregates, for all three
// full-region strategies.
func TestPerPUSumsMatchAggregates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"flush", func(c *core.Config) { c.FIFO = false }},
		// With the default 128-bit export bandwidth a single PU's FIFO
		// never overflows; throttle the drain so overflow waits occur.
		{"fifo", func(c *core.Config) { c.FIFO = true; c.ExportBitsPerCycle = 8 }},
		{"summarize", func(c *core.Config) { c.FIFO = false; c.SummarizeOnFull = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, units := denseLoad(t, tc.mut)
			_, md := runModel(m, units, false)
			res := md.Result()

			var flushes, summaries, stalls, entries int64
			for _, pu := range md.PerPU() {
				flushes += pu.Flushes
				summaries += pu.Summaries
				stalls += pu.StallCycles
				entries += pu.ReportEntries
				if pu.PeakOccupancy < pu.Occupancy {
					t.Errorf("peak occupancy %d below current %d", pu.PeakOccupancy, pu.Occupancy)
				}
			}
			if flushes != res.Flushes {
				t.Errorf("per-PU flushes %d != aggregate %d", flushes, res.Flushes)
			}
			if summaries != res.Summaries {
				t.Errorf("per-PU summaries %d != aggregate %d", summaries, res.Summaries)
			}
			if stalls != res.StallCycles {
				t.Errorf("per-PU stalls %d != aggregate %d", stalls, res.StallCycles)
			}
			if res.StallCycles == 0 {
				t.Error("dense load did not stall; the test is not exercising full-region events")
			}
			if entries == 0 {
				t.Error("no report entries recorded")
			}
		})
	}
}

// TestAttachedTelemetryMatchesMachine runs the same input with and
// without a collector attached to the machine and its model and checks
// that (a) results are identical and (b) the registry counters equal the
// aggregates.
func TestAttachedTelemetryMatchesMachine(t *testing.T) {
	m, units := denseLoad(t, func(c *core.Config) { c.FIFO = true; c.ExportBitsPerCycle = 8 })
	md := report.NewSunder(m.Placement(), m.Config())
	run := func() (*core.Result, report.Result) {
		m.Reset()
		md.Reset()
		res := m.Run(units, core.RunOptions{OnReportCycle: md.OnReportCycle})
		md.Finish(res.KernelCycles)
		return res, md.Result()
	}
	base, baseRep := run()

	col := telemetry.NewCollector()
	tr := col.EnableTrace(0)
	m.AttachTelemetry(col)
	md.AttachTelemetry(col)
	res, rep := run()

	if !reflect.DeepEqual(base, res) || baseRep != rep {
		t.Fatalf("telemetry changed results:\nbase %+v %+v\nwith %+v %+v", base, baseRep, res, rep)
	}
	check := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check(core.MetricKernelCycles, col.Counter(core.MetricKernelCycles).Load(), res.KernelCycles)
	check(report.MetricStallCycles, col.Counter(report.MetricStallCycles).Load(), rep.StallCycles)
	check(core.MetricReports, col.Counter(core.MetricReports).Load(), res.Reports)
	check(core.MetricReportCycles, col.Counter(core.MetricReportCycles).Load(), res.ReportCycles)
	check(report.MetricPUFlushes+"_total", col.CounterVec(report.MetricPUFlushes, m.NumPUs()).Sum(), rep.Flushes)
	check(report.MetricPUStallCycles+"_total", col.CounterVec(report.MetricPUStallCycles, m.NumPUs()).Sum(), rep.StallCycles)

	var entries int64
	for _, pu := range md.PerPU() {
		entries += pu.ReportEntries
	}
	check(report.MetricPUEntries+"_total", col.CounterVec(report.MetricPUEntries, m.NumPUs()).Sum(), entries)
	if h := col.Histogram(report.MetricOccupancy, nil); h.Count() != entries {
		t.Errorf("occupancy observations %d != report entries %d", h.Count(), entries)
	}

	// The trace must contain report writes and overflow events with
	// cycle timestamps inside the run.
	var writes, overflows int
	for _, ev := range tr.Events() {
		if ev.Cycle < 0 || ev.Cycle >= res.KernelCycles {
			t.Fatalf("event cycle %d outside run of %d cycles", ev.Cycle, res.KernelCycles)
		}
		switch ev.Kind {
		case telemetry.EventReportWrite:
			writes++
		case telemetry.EventOverflow:
			overflows++
		}
	}
	if writes == 0 {
		t.Error("trace has no report_write events")
	}
	if overflows == 0 && rep.Flushes > 0 {
		t.Errorf("model counted %d overflows but trace has none", rep.Flushes)
	}

	// Detach restores the disabled path: counters stop moving.
	m.AttachTelemetry(nil)
	md.AttachTelemetry(nil)
	run()
	check("after detach "+core.MetricKernelCycles, col.Counter(core.MetricKernelCycles).Load(), res.KernelCycles)
	check("after detach "+report.MetricStallCycles, col.Counter(report.MetricStallCycles).Load(), rep.StallCycles)

	// The metrics dump exposes per-PU lines plus the _total sums.
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{core.MetricKernelCycles, report.MetricPUFlushes + `{pu="0"}`, report.MetricPUFlushes + "_total", report.MetricOccupancy + "_bucket"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestSummarizeAttributesStalls checks that host-requested summarization
// keeps the per-PU stall attribution invariant.
func TestSummarizeAttributesStalls(t *testing.T) {
	m, units := denseLoad(t, nil)
	_, md := runModel(m, units, false)
	before := md.Result().StallCycles
	md.Summarize()
	after := md.Result().StallCycles
	if after == before {
		t.Fatal("Summarize added no stall cycles")
	}
	var stalls int64
	for _, pu := range md.PerPU() {
		stalls += pu.StallCycles
	}
	if stalls != after {
		t.Errorf("per-PU stalls %d != aggregate %d after Summarize", stalls, after)
	}
}
