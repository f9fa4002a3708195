package sunder

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"weak"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/sched"
)

// This file is the one execution pipeline behind Scan, ScanParallel,
// ScanBatch and Stream (DESIGN.md §4.17): a runner of the compiled
// substrate executes a call span by span — the whole input, a share of it,
// or a prefilter's candidate windows (windows.go) — the reduction turns its
// report cycles into matches and counts, and result turns a finished run
// into a ScanResult.

// runner is the execution contract every substrate implements: rewind,
// consume input span by span, seal. A runner owns its partial-cycle
// buffering and final-cycle padding, steps whole cycles in its own loop,
// and hands only report cycles to its reduction — so a whole-input scan is
// reset; feed(input); finish and a stream is reset; feed per Write; finish.
type runner interface {
	// reset starts a run at cycle zero. Matches go to onMatch as they are
	// reduced; with nil they are collected into finish's output. size is the
	// input bytes the run covers when they are known up front (a whole
	// input, or a share of one), and 0 on a stream.
	reset(onMatch func(Match), size int64)
	// feed consumes the next span of input. An error, which only a
	// stream's prefilter returns, is sticky.
	feed(p []byte) error
	// finish pads and executes the final partial cycle and returns the run.
	finish() runOutput
}

// windowRunner is a runner that can also move within a run to a
// prefilter's next candidate window: the lazy DFA's and the machine's.
type windowRunner interface {
	runner
	// resetAt rewinds the substrate, cold, to the absolute input cycle base
	// (anchored starts quiet when base > 0) and replays warm, whole cycles
	// from base on, without reporting. Later feeds report with absolute
	// cycles and byte positions into the same run, whose KernelCycles leave
	// warm-ups out. Windows come in input order.
	resetAt(base int64, warm []byte)
	// skipTo moves the run past the cycles below to without executing
	// them, which a prefilter proved match-free; a machine's report model
	// still drains through them.
	skipTo(to int64)
}

// runOutput is a finished run, whichever substrate produced it.
type runOutput struct {
	stats   Stats
	matches []Match
	// windows counts the windows the run opened (windowLoop), which a
	// prefiltered scan reports as PrefilterWindows.
	windows int64
	// model is the report model the run finished, which holds its per-PU
	// rows; nil when the run models no report region (lazy DFA, a
	// prefilter full skip), and the result then carries zeroed rows.
	model *report.Sunder
	// trace is the report-state stream of a share of a parallel run on
	// the machine, which feeds the merged run's model (runShares).
	trace *report.Trace
}

// add appends run o, which covers later cycles of the same input.
func (out *runOutput) add(o runOutput) {
	s := &out.stats
	s.KernelCycles += o.stats.KernelCycles
	s.Reports += o.stats.Reports
	s.ReportCycles += o.stats.ReportCycles
	out.windows += o.windows
	out.matches = append(out.matches, o.matches...)
}

// reportOn finishes model, fed a run's report cycles, at the run's end
// cycle and takes the run's device report accounting from it.
func (out *runOutput) reportOn(model *report.Sunder, end int64) {
	model.Finish(end)
	res := model.Result()
	out.stats.StallCycles, out.stats.Flushes = res.StallCycles, res.Flushes
	out.model = model
}

// result turns a finished run into the public ScanResult — the one place
// that happens.
func (e *Engine) result(out runOutput) *ScanResult {
	return &ScanResult{
		Matches: out.matches,
		Stats:   out.stats,
		PerPU:   puStats(out.model, e.proto.NumPUs()),
	}
}

// reduction is the façade half of the report reducer, embedded in every
// runner: core.Reducer owns the per-cycle (offset, origin) de-duplication
// over the compile's report table and the Reports/ReportCycles and device
// report counters; the reduction orders each cycle's surviving entries,
// adds the pad-tail phantom filter, builds the matches straight from the
// entries, and feeds the report cycles the run owns, with absolute cycles,
// to sink.
type reduction struct {
	red core.Reducer
	// entries is the report table's, which kept indexes for each cycle,
	// and rank and ranked the artifact's (offset, code) order of them.
	entries      []core.ReportEntry
	kept         []int32
	rank, ranked []int32
	// sink receives the report-state stream: a machine runner's report
	// model or share trace; nil on the lazy DFA, which models no region.
	sink reportSink
	// su and rate are units per input byte and per cycle, and shift is
	// log2(su) (SymbolUnits is 2, or 4 for wide symbols); fed is the input
	// byte the run has reached, which bounds real reports (see cycle).
	su, rate, fed int64
	shift         uint
	// base is the absolute cycle minus the substrate's own cycle count,
	// from the first cycle that may report, and warmed the warm-up cycles
	// the run has replayed (see at); all three are 0 unless resetAt moved
	// the run.
	base, from, warmed int64
	// reached is the cycle the run's last prefilter skip reached.
	reached int64
	matches []Match
	onMatch func(Match)
	// delivered counts the run's matches; last is the last run's count and
	// density its matches per byte fed, which size the next run's match
	// slice (see cycle).
	delivered, last, size int64
	density               float64
}

// reportSink is what a machine run's report cycles feed: a *report.Sunder,
// or the *report.Trace of a share the merge replays into one.
type reportSink interface {
	OnReportCycle(cycle int64, states []automata.StateID)
	Reset()
}

// newReduction returns a reduction of the artifact's report table whose
// report cycles feed sink.
func (a *compiledArtifact) newReduction(sink reportSink) reduction {
	tab, su := a.proto.Reports(), int64(a.nibble.SymbolUnits)
	return reduction{red: core.NewReducer(tab), entries: tab.Entries(), rank: a.rank, ranked: a.ranked,
		sink: sink, su: su, rate: int64(a.nibble.Rate), shift: uint(bits.TrailingZeros64(uint64(su)))}
}

// begin starts a run of size input bytes (0: unknown) whose cycles are
// stepped by m (nil: not by a device; see core.Reducer.Reset).
func (r *reduction) begin(m *core.Machine, onMatch func(Match), size int64) {
	r.red.Reset(m)
	r.fed, r.base, r.from, r.warmed, r.reached = 0, 0, 0, 0, 0
	r.matches, r.onMatch, r.delivered, r.size = nil, onMatch, 0, size
}

func (r *reduction) skipTo(to int64) { r.reached = max(r.reached, to) }

// at is resetAt's bookkeeping: the substrate, at its own cycle local,
// stands at absolute cycle base, and the warm bytes it is about to replay
// report nothing and are not KernelCycles.
func (r *reduction) at(base, local int64, warm int) {
	cycles := int64(warm) * r.su / r.rate
	r.base, r.fed = base-local, base*r.rate/r.su
	r.from = base + cycles
	r.warmed += cycles
}

// cycle reduces the report cycle c and builds its matches — the one place
// a Match is built. A cycle of warm-up replay (before from) reports
// nothing.
//
// The kept entries go out ordered by (offset, code), so a run's matches
// are sorted by (Position, Code) whatever order the substrate's reporting
// states came in: the lazy DFA's depends on its cache's history. A report
// ending past the bytes fed so far sits in the pad tail of the final
// vector (a Pad unit satisfies any-symbol positions like `.`): the device
// writes the entry, so it counted in Reports, but it is not a match, and
// neither is any entry after it.
//
// The run's first collected match allocates the match slice, sized from the
// last run's match density over the run's input (its size bytes or,
// unknown, the bytes fed so far), so a match-free run allocates nothing and
// a run as dense as the last one does not regrow. The size is capped at
// twice the last run's matches: a sparse run after a dense one must not
// reserve for matches it does not find; past the cap, append grows.
func (r *reduction) cycle(c int64, ids []automata.StateID) {
	if c < r.from {
		return
	}
	if r.sink != nil {
		r.sink.OnReportCycle(c, ids)
	}
	r.kept = r.red.Cycle(ids, r.kept[:0])
	if len(r.kept) > 1 {
		r.order()
	}
	unit, end := c*r.rate, r.fed<<r.shift
	for _, i := range r.kept {
		e := &r.entries[i]
		u := unit + int64(e.Offset)
		if u >= end {
			return
		}
		m := Match{Position: u >> r.shift, Code: e.Code}
		r.delivered++
		if r.onMatch != nil {
			r.onMatch(m)
			continue
		}
		if r.matches == nil {
			n := int(min(r.density*float64(max(r.fed, r.size)), 2*float64(r.last)))
			r.matches = make([]Match, 0, n+n/8+8)
		}
		r.matches = append(r.matches, m)
	}
}

// order sorts the cycle's kept entries by offset, then code. Most cycles
// keep a handful, which an insertion sort comparing the entries inline
// orders fastest; a wide cycle's entries are sorted as integers, by rank
// (rankEntries).
func (r *reduction) order() {
	k, es := r.kept, r.entries
	if len(k) > 12 {
		for i, x := range k {
			k[i] = r.rank[x]
		}
		slices.Sort(k)
		for i, x := range k {
			k[i] = r.ranked[x]
		}
		return
	}
	for i := 1; i < len(k); i++ {
		x := k[i]
		off, code := es[x].Offset, es[x].Code
		j := i
		for ; j > 0; j-- {
			y := &es[k[j-1]]
			if y.Offset < off || y.Offset == off && y.Code <= code {
				break
			}
			k[j] = k[j-1]
		}
		k[j] = x
	}
}

// rankEntries numbers report table entries in (offset, code) order, the
// order a cycle's matches go out in: rank[i] is entry i's place and
// ranked[p] the entry in place p.
func rankEntries(es []core.ReportEntry) (rank, ranked []int32) {
	ranked = make([]int32, len(es))
	for i := range ranked {
		ranked[i] = int32(i)
	}
	slices.SortFunc(ranked, func(a, b int32) int {
		return cmp.Or(cmp.Compare(es[a].Offset, es[b].Offset), cmp.Compare(es[a].Code, es[b].Code), cmp.Compare(a, b))
	})
	rank = make([]int32, len(es))
	for p, i := range ranked {
		rank[i] = int32(p)
	}
	return rank, ranked
}

// end seals a run of kernel executed cycles: the reducer's report counts
// complete its stats, and the collected matches move out — a persistent
// runner must not keep a result's memory alive on the engine.
func (r *reduction) end(kernel int64) runOutput {
	st := Stats{KernelCycles: kernel, Reports: r.red.Reports, ReportCycles: r.red.ReportCycles}
	out := runOutput{stats: st, matches: r.matches}
	if r.fed > 0 {
		r.density, r.last = float64(r.delivered)/float64(r.fed), r.delivered
	}
	r.matches = nil
	return out
}

// runner returns a runner of the compiled substrate. The sequential entry
// points (Scan, NewStream) share the engine's persistent machine or DFA
// runner — the DFA state cache stays hot across scans; private hands out one
// that touches no engine state, for the parallel entry points' workers, who
// release it when their call ends.
func (e *Engine) runner(private bool) windowRunner {
	if e.onDFA {
		if private {
			if d := e.takeDFA(); d != nil {
				return d
			}
			return e.newDFARunner()
		}
		if e.dfaRun == nil {
			e.dfaRun = e.newDFARunner()
		}
		return e.dfaRun
	}
	if private {
		return e.privateMachineRunner(e.newModel())
	}
	if e.nfaRun == nil {
		e.nfaRun = &machineRunner{reduction: e.newReduction(e.model), m: e.machine}
	}
	return e.nfaRun
}

// newModel returns a report model of the compiled device, fed telemetry
// into the engine's collector.
func (e *Engine) newModel() *report.Sunder {
	m := report.NewSunder(e.proto.Reports(), e.proto.Config())
	m.AttachTelemetry(e.telemetryCollector())
	return m
}

// privateMachineRunner returns a runner on a private clone of the pristine
// machine whose report cycles feed sink.
func (e *Engine) privateMachineRunner(sink reportSink) *machineRunner {
	m := e.proto.Clone()
	m.AttachTelemetry(e.telemetryCollector())
	return &machineRunner{reduction: e.newReduction(sink), m: m}
}

// acquire returns rs[i], filled with a runner on first use.
func (e *Engine) acquire(rs []windowRunner, i int, private bool) windowRunner {
	if rs[i] == nil {
		rs[i] = e.runner(private)
	}
	return rs[i]
}

// release ends the call of the private runners in rs. A DFA runner goes
// back to the artifact's free list with its state cache: reset restores
// everything else, so the next call, on this engine or a clone, starts
// warm.
func (e *Engine) release(rs []windowRunner) {
	for _, rn := range rs {
		if d, ok := rn.(*dfaRunner); ok {
			e.putDFA(d)
		}
	}
}

// idleDFA is the free list of an artifact's private DFA runners.
type idleDFA []*dfaRunner

// takeDFA pops an idle private DFA runner of the artifact, or returns nil.
//
// The list is one, behind a mutex, so a call on any P finds every idle
// runner — a sync.Pool strands a runner in the private slot of the P that
// put it, and the call that misses it re-warms a cold one. The artifact
// reaches the list only through a weak pointer; what keeps it alive is
// dfaPool, whose entries are the list itself, one put per release and one
// dropped per take. So the list lives exactly as long as a pool entry does,
// and an idle rule set's runners are gone after two collections.
func (a *compiledArtifact) takeDFA() *dfaRunner {
	a.dfaPool.Get()
	a.dfaMu.Lock()
	defer a.dfaMu.Unlock()
	l := a.dfaIdle.Value()
	if l == nil || len(*l) == 0 {
		return nil
	}
	d := (*l)[len(*l)-1]
	*l = (*l)[:len(*l)-1]
	return d
}

// putDFA returns a private DFA runner to the artifact's free list.
func (a *compiledArtifact) putDFA(d *dfaRunner) {
	a.dfaMu.Lock()
	l := a.dfaIdle.Value()
	if l == nil {
		l = new(idleDFA)
		a.dfaIdle = weak.Make(l)
	}
	*l = append(*l, d)
	a.dfaMu.Unlock()
	a.dfaPool.Put(l)
}

// ErrCycleRangeExceeded is returned by Scan, ScanParallel, ScanBatch and
// Stream.Write for input longer than the compiled device can account for:
// a report entry stamps its cycle through a chain of Options.MetadataBits-
// wide stride markers that has to fit the report region, which bounds the
// cycles a device may be stepped (core.Config.MaxCycles — about 10^15 at
// the default 20 bits, a few thousand at 1). The bound is a property of
// the compiled configuration, so it holds on every substrate alike, whether
// or not the substrate models the region. On a stream the error is sticky;
// Close still finishes what was accepted.
var ErrCycleRangeExceeded = errors.New("sunder: input exceeds the device's report cycle range")

// checkCycleRange refuses an input of n bytes in total that would step the
// device past the last cycle its report entries can stamp.
func (e *Engine) checkCycleRange(n int64) error {
	cfg := e.proto.Config()
	rate := int64(cfg.Rate)
	if cycles := (n*int64(e.nibble.SymbolUnits) + rate - 1) / rate; cycles > cfg.MaxCycles() {
		return fmt.Errorf("%w: %d bytes take %d cycles, MetadataBits=%d stamps %d",
			ErrCycleRangeExceeded, n, cycles, cfg.MetadataBits, cfg.MaxCycles())
	}
	return nil
}

// scanOn runs one whole input over the call's runners rs, acquired on
// first use: its candidate windows when the prefilter engaged
// (scanPrefiltered), its shares when there are runners to share it
// (runShares, with one span that covers the input), or reset; feed; finish
// on the one runner.
func (e *Engine) scanOn(rs []windowRunner, private bool, input []byte) (*ScanResult, error) {
	if err := e.checkCycleRange(int64(len(input))); err != nil {
		return nil, err
	}
	if e.pre.enabled() {
		return e.scanPrefiltered(rs, private, input), nil
	}
	if len(rs) > 1 {
		total := e.geo.cycles(int64(len(input)))
		return e.result(e.runShares(rs, private, input, []sched.CycleSpan{{End: total}}, total)), nil
	}
	rn := e.acquire(rs, 0, private)
	rn.reset(nil, int64(len(input)))
	if err := rn.feed(input); err != nil {
		return nil, err
	}
	return e.result(rn.finish()), nil
}

// feedChunk bounds the unit-expansion scratch of the machine runners: input
// is expanded and stepped this many bytes at a time.
const feedChunk = 2048

// machineRunner steps a bitvec machine: the engine's shared one, or a
// private clone of the pristine compile artifact.
type machineRunner struct {
	reduction
	m *core.Machine
	// units is the expansion scratch; between feeds it holds the units of
	// an incomplete cycle.
	units []funcsim.Unit
	ids   []automata.StateID
}

func (r *machineRunner) reset(onMatch func(Match), size int64) {
	r.m.Reset()
	r.m.SuppressStartOfData(false)
	r.sink.Reset()
	r.units = r.units[:0]
	r.begin(r.m, onMatch, size)
}

// resetAt rewinds the machine's active states only: a run's windows are
// one device run (start-of-data injection can fire on a first window
// alone), and their owned report cycles feed its report model at their
// absolute cycles. warm replays with telemetry detached, so device
// counters see owned cycles only, and a run cut into shares counts what
// the whole run counts.
func (r *machineRunner) resetAt(base int64, warm []byte) {
	r.m.Rewind()
	r.m.SuppressStartOfData(base > 0)
	r.units = r.units[:0]
	r.at(base, r.m.KernelCycles(), len(warm))
	tel := r.m.Telemetry()
	if tel != nil {
		r.m.AttachTelemetry(nil)
	}
	r.feed(warm)
	if tel != nil {
		r.m.AttachTelemetry(tel)
	}
}

func (r *machineRunner) feed(p []byte) error {
	r.fed += int64(len(p))
	for len(p) > 0 {
		n := min(len(p), feedChunk)
		r.units = funcsim.AppendNibbles(slices.Grow(r.units, 2*n), p[:n])
		p = p[n:]
		r.step()
	}
	return nil
}

// step executes every complete cycle buffered in units and keeps the rest.
func (r *machineRunner) step() {
	rate := r.m.Config().Rate
	off := 0
	for ; off+rate <= len(r.units); off += rate {
		c := r.base + r.m.KernelCycles()
		r.ids = r.m.Step(r.units[off:off+rate], r.ids[:0])
		if len(r.ids) > 0 {
			r.cycle(c, r.ids)
		}
	}
	r.units = append(r.units[:0], r.units[off:]...)
}

func (r *machineRunner) finish() runOutput {
	if len(r.units) > 0 {
		r.units = funcsim.PadUnits(r.units, r.m.Config().Rate)
		r.step()
	}
	out := r.end(r.m.KernelCycles() - r.warmed)
	switch s := r.sink.(type) {
	case *report.Trace:
		out.trace, r.sink = s, new(report.Trace)
	case *report.Sunder:
		out.reportOn(s, max(r.reached, r.base+r.m.KernelCycles()))
	}
	return out
}

// dfaRunner steps the lazy DFA over raw bytes. KernelCycles equals the
// device's padded cycle count; StallCycles, Flushes and the per-PU
// breakdown are the report model's, which the lazy DFA does not feed, and
// read zero. Device telemetry counters stay untouched for the same reason.
// Feeding the model costs about 47–90 ns per report cycle
// (BenchmarkReportModel on Snort's rate-4 stream, 2-vCPU Xeon), which on a
// report-dense stream would cost the lazy DFA more than its stepping does.
type dfaRunner struct {
	reduction
	r *dfa.Runner
	// pend holds the bytes of an incomplete cycle between feeds.
	pend []byte
	// prior counts the cycles stepped before the run's last resetAt.
	prior int64
}

func (e *Engine) newDFARunner() *dfaRunner {
	return &dfaRunner{reduction: e.newReduction(nil), r: dfa.NewRunner(e.dfaPlan, dfa.DefaultConfig())}
}

func (d *dfaRunner) reset(onMatch func(Match), size int64) {
	d.r.Reset()
	d.pend, d.prior = d.pend[:0], 0
	d.begin(nil, onMatch, size)
}

// resetAt starts the lazy DFA mid-stream when base > 0: the state cache
// stays warm, and the first cycle steps from the empty set.
func (d *dfaRunner) resetAt(base int64, warm []byte) {
	d.prior += d.r.Cycle()
	if base > 0 {
		d.r.ResetMidStream()
	} else {
		d.r.Reset()
	}
	d.pend = d.pend[:0]
	d.at(base, 0, len(warm))
	d.feed(warm)
}

func (d *dfaRunner) feed(p []byte) error {
	d.fed += int64(len(p))
	sb := d.r.Plan().StepBytes()
	if len(d.pend) > 0 {
		// Complete the cycle a previous feed left open.
		n := min(sb-len(d.pend), len(p))
		d.pend = append(d.pend, p[:n]...)
		p = p[n:]
		if len(d.pend) < sb {
			return nil
		}
		d.step(d.pend, 0)
		d.pend = d.pend[:0]
	}
	// The hot loop: Run takes the cached hits up to the next report, and
	// Step the one cycle Run stops before.
	for r := d.r; len(p) >= sb; {
		n, ids := r.Run(p)
		if p = p[n*sb:]; len(ids) > 0 {
			d.cycle(d.base+r.Cycle()-1, ids)
		} else if len(p) >= sb {
			d.step(p[:sb], 0)
			p = p[sb:]
		}
	}
	d.pend = append(d.pend, p...)
	return nil
}

func (d *dfaRunner) step(data []byte, pad int) {
	c := d.base + d.r.Cycle()
	if ids := d.r.Step(data, pad); len(ids) > 0 {
		d.cycle(c, ids)
	}
}

func (d *dfaRunner) finish() runOutput {
	if len(d.pend) > 0 {
		d.step(d.pend, d.r.Plan().StepBytes()-len(d.pend))
		d.pend = d.pend[:0]
	}
	return d.end(d.prior + d.r.Cycle() - d.warmed)
}
