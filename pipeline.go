package sunder

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"weak"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/report"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
)

// This file is the one execution pipeline behind Scan, ScanParallel,
// ScanBatch and Stream (DESIGN.md §4.17): a runner of the compiled
// substrate executes a call span by span — the whole input, a share of it,
// or a prefilter's candidate windows (windows.go) — the reduction turns its
// report cycles into matches and counts, and result turns a finished run
// into a ScanResult.

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
	// n counts the cycles the run has stepped, warm-ups included — the
	// run's one cycle count, whichever substrate steps it. base is the
	// absolute cycle minus n, from the first cycle that may report, and
	// warmed the warm-up cycles the run has replayed (see at); all three
	// are 0 unless resetAt moved the run.
	n, base, from, warmed int64
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
	r.fed, r.n, r.base, r.from, r.warmed, r.reached = 0, 0, 0, 0, 0, 0
	r.matches, r.onMatch, r.delivered, r.size = nil, onMatch, 0, size
}

// skipTo moves the run past the cycles below to without executing them,
// which a prefilter proved match-free; a machine's report model still
// drains through them (finish).
func (r *reduction) skipTo(to int64) { r.reached = max(r.reached, to) }

// at is resetAt's bookkeeping: the run, n cycles in, stands at absolute
// cycle base, and the warm bytes it is about to replay report nothing and
// are not KernelCycles.
func (r *reduction) at(base int64, warm int) {
	cycles := int64(warm) * r.su / r.rate
	r.base, r.fed = base-r.n, base*r.rate/r.su
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

// end seals the run: its stepped cycles less the warm-ups are its
// KernelCycles, the reducer's report counts complete its stats, and the
// collected matches move out — a persistent runner must not keep a result's
// memory alive on the engine.
func (r *reduction) end() runOutput {
	st := Stats{KernelCycles: r.n - r.warmed, Reports: r.red.Reports, ReportCycles: r.red.ReportCycles}
	out := runOutput{stats: st, matches: r.matches}
	if r.fed > 0 {
		r.density, r.last = float64(r.delivered)/float64(r.fed), r.delivered
	}
	r.matches = nil
	return out
}

// take returns the runner of a call that holds one for its length (Scan,
// Summarize, ReadReports, a Stream until Close): the engine's idle runner
// from its slot, or else one from the free list (runner); give hands it
// back.
//
// The slot keeps the one-runner calls off the free list, whose sync.Pool
// anchor a collection drops: the next Put then re-allocates its per-P
// array, and a call that found the list dropped builds a cold runner.
// ScanBatch and ScanParallel use the free list alone, so their runners stay
// weakly held.
func (e *Engine) take() *runner {
	rn := e.slot.Swap(nil)
	if rn == nil {
		rn = e.takeIdle()
	}
	return e.ready(rn)
}

// give hands back a runner from take: into the engine's slot when it is
// empty, else to the free list.
func (e *Engine) give(rn *runner) {
	if e.note(rn); !e.slot.CompareAndSwap(nil, rn) {
		e.putIdle(rn)
	}
}

// runner takes a runner of the compiled substrate from the artifact's free
// list, or builds one, ready for a call on e; release hands it back.
func (e *Engine) runner() *runner { return e.ready(e.takeIdle()) }

// ready readies a taken runner, or a new one for nil, for a call on e: the
// engine's collector is attached and the lazy DFA's counters are marked,
// so that note adds only this call's part to the engine's.
func (e *Engine) ready(rn *runner) *runner {
	if rn == nil {
		rn = e.newRunner()
	}
	rn.attach(e.tel.Load())
	if rn.d != nil {
		rn.took, rn.tookSkipped = rn.d.Stats(), rn.d.Skipped()
	}
	return rn
}

// dfaCounters are an engine's lazy-DFA counters (DFAStats).
type dfaCounters struct{ states, hits, misses, evictions, fallbacks, skipped atomic.Int64 }

// note adds to e's lazy-DFA counters what changed on rn since it was taken.
func (e *Engine) note(rn *runner) {
	if rn.d == nil {
		return
	}
	s, t, c := rn.d.Stats(), rn.took, &e.dfaRuns
	c.states.Add(s.States - t.States)
	c.hits.Add(s.Hits - t.Hits)
	c.misses.Add(s.Misses - t.Misses)
	c.evictions.Add(s.Evictions - t.Evictions)
	c.fallbacks.Add(s.Fallbacks - t.Fallbacks)
	c.skipped.Add(rn.d.Skipped() - rn.tookSkipped)
}

// newRunner returns a runner of the artifact's substrate: on the lazy DFA
// a runner with a cold transition cache, and on the machine a clone of
// proto with a report model of its own.
func (a *compiledArtifact) newRunner() *runner {
	sb := a.proto.Plan().Positions()
	r := &runner{sb: sb, cycles: 2 * sb / a.nibble.Rate}
	if a.onDFA {
		r.reduction, r.d = a.newReduction(nil), dfa.NewRunner(a.dfaPlan, dfa.DefaultConfig())
		return r
	}
	r.m, r.model = a.proto.Clone(), report.NewSunder(a.proto.Reports(), a.proto.Config())
	r.reduction = a.newReduction(r.model)
	return r
}

// release ends the call of the runners in rs from runner: each goes back
// to the artifact's free list with its scratch and, on the lazy DFA, its
// state cache. reset restores everything else, so the next call, on this
// engine or a clone, starts warm.
func (e *Engine) release(rs []*runner) {
	for _, rn := range rs {
		if rn != nil {
			e.note(rn)
			e.putIdle(rn)
		}
	}
}

// idleRunners is the free list of an artifact's runners.
type idleRunners []*runner

// takeIdle pops an idle runner of the artifact, or returns nil.
//
// The list is one, behind a mutex, so a call on any P finds every idle
// runner — a sync.Pool strands a runner in the private slot of the P that
// put it, and the call that misses it re-warms a cold one. The artifact
// reaches the list only through a weak pointer; what keeps it alive is
// idleAnchor, whose entries are the list itself, one put per release and
// one dropped per take. So the list lives exactly as long as a pool entry
// does, and an idle rule set's runners are gone after two collections.
func (a *compiledArtifact) takeIdle() *runner {
	a.idleAnchor.Get()
	a.idleMu.Lock()
	defer a.idleMu.Unlock()
	l := a.idle.Value()
	if l == nil || len(*l) == 0 {
		return nil
	}
	r := (*l)[len(*l)-1]
	*l = (*l)[:len(*l)-1]
	return r
}

// putIdle returns a runner to the artifact's free list, detached from
// any engine's telemetry.
func (a *compiledArtifact) putIdle(r *runner) {
	r.attach(nil)
	a.idleMu.Lock()
	l := a.idle.Value()
	if l == nil {
		l = new(idleRunners)
		a.idle = weak.Make(l)
	}
	*l = append(*l, r)
	a.idleMu.Unlock()
	a.idleAnchor.Put(l)
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

// scanOn runs one whole input over the call's runners rs, the first
// filled from the free list if it is nil and the others on first use: its
// candidate windows when the prefilter engaged (scanPrefiltered), its
// shares when there are runners to share it (runShares, with one span that
// covers the input), or reset; feed; finish on the one runner.
func (e *Engine) scanOn(rs []*runner, input []byte) (*ScanResult, error) {
	if err := e.checkCycleRange(int64(len(input))); err != nil {
		return nil, err
	}
	if rs[0] == nil {
		rs[0] = e.runner()
	}
	if e.pre.enabled() {
		return e.scanPrefiltered(rs, input), nil
	}
	if len(rs) > 1 {
		total := e.geo.cycles(int64(len(input)))
		return e.result(e.runShares(rs, input, []sched.CycleSpan{{End: total}}, total)), nil
	}
	rn := rs[0]
	rn.reset(nil, int64(len(input)))
	rn.feed(input)
	return e.result(rn.finish()), nil
}

// runner executes the compiled substrate over raw input bytes, span by
// span: reset rewinds it, feed consumes the next span, and finish pads and
// executes the final partial cycle and seals the run — so a whole-input
// scan is reset; feed(input); finish and a stream is reset; feed per
// Write; finish. resetAt and skipTo move it within a run to a prefilter's
// next candidate window (windowLoop).
//
// One runner serves both substrates, which step the same NFA plan; what
// differs is fields, not types:
//   - d, the lazy DFA's transition cache, steps the run when there is one,
//     and m, a bitvec machine, otherwise;
//   - the reduction's sink: the machine's report model, or a share's trace
//     the merge replays into one; nil on the lazy DFA, which models no
//     report region;
//   - the telemetry attached to m, which a warm-up replay mutes.
//
// The runner owns its partial-cycle buffering and final-cycle padding,
// steps whole cycles in its own loop — the hit loop on the cache, chosen
// once per span — and hands only report cycles to its reduction.
type runner struct {
	reduction
	// m and model are a machine runner's device and report region, and
	// trace its record of a share's report cycles (runShares); d is a lazy
	// DFA runner's transition cache, and took and tookSkipped its counters
	// when the runner was taken (note).
	m           *core.Machine
	model       *report.Sunder
	trace       report.Trace
	d           *dfa.Runner
	took        dfa.Stats
	tookSkipped int64
	// sb is the input bytes a step reads, Rate/2 or one at rate 1, and
	// cycles the cycles it executes: one, or at rate 1 two, one per nibble.
	sb, cycles int
	// pend holds the bytes of an incomplete step between feeds.
	pend []byte
	ids  []automata.StateID
	// probe is a prefiltered run's literal probe, which keeps its
	// candidate spans as scratch between runs.
	probe literalProbe
}

// reset starts a run at cycle zero. Matches go to onMatch as they are
// reduced; with nil they are collected into finish's output. size is the
// input bytes the run covers when they are known up front (a whole input,
// or a share of one), and 0 on a stream.
func (r *runner) reset(onMatch func(Match), size int64) {
	if r.d != nil {
		r.d.Reset()
	} else {
		r.m.Reset()
		r.m.SuppressStartOfData(false)
		r.sink.Reset()
	}
	r.pend = r.pend[:0]
	r.begin(r.m, onMatch, size)
}

// resetAt rewinds the substrate, cold, to the absolute input cycle base
// (anchored starts quiet when base > 0) and replays warm, whole cycles from
// base on, without reporting. Later feeds report with absolute cycles and
// byte positions into the same run, whose KernelCycles leave warm-ups out.
// Windows come in input order.
//
// The lazy DFA's state cache stays warm. The machine rewinds its active
// states only: a run's windows are one device run (start-of-data injection
// can fire on a first window alone), and their owned report cycles feed
// its report model at their absolute cycles. It replays with telemetry
// muted, so device counters see owned cycles only, and a run cut into
// shares counts what the whole run counts.
func (r *runner) resetAt(base int64, warm []byte) {
	r.pend = r.pend[:0]
	r.at(base, len(warm))
	if r.d == nil {
		r.m.Rewind()
		r.m.SuppressStartOfData(base > 0)
		r.m.MuteTelemetry(true)
		r.feed(warm)
		r.m.MuteTelemetry(false)
		return
	}
	if base > 0 {
		r.d.ResetMidStream()
	} else {
		r.d.Reset()
	}
	r.feed(warm)
}

// attach connects c to the device and report model of a machine runner
// (nil detaches), unless they feed c already; the lazy DFA feeds no device
// instruments.
func (r *runner) attach(c *telemetry.Collector) {
	if r.m != nil && r.m.Telemetry() != c {
		r.m.AttachTelemetry(c)
		r.model.AttachTelemetry(c)
	}
}

// feed consumes the next span of input.
func (r *runner) feed(p []byte) {
	r.fed += int64(len(p))
	sb := r.sb
	if len(r.pend) > 0 {
		// Complete the step a previous feed left open.
		n := min(sb-len(r.pend), len(p))
		r.pend = append(r.pend, p[:n]...)
		p = p[n:]
		if len(r.pend) < sb {
			return
		}
		r.step(r.pend, 0)
		r.pend = r.pend[:0]
	}
	if d := r.d; d != nil {
		// The hit loop: Run takes the cached hits up to the next report,
		// and step the one cycle Run stops before.
		for len(p) >= sb {
			n, ids := d.Run(p)
			r.n += int64(n)
			if p = p[n*sb:]; len(ids) > 0 {
				r.cycle(r.base+r.n-1, ids)
			} else if len(p) >= sb {
				r.step(p[:sb], 0)
				p = p[sb:]
			}
		}
	} else {
		for ; len(p) >= sb; p = p[sb:] {
			r.step(p[:sb], 0)
		}
	}
	r.pend = append(r.pend, p...)
}

// step executes the cycles of one step's bytes, data, of which the last pad
// lie past the input's end.
func (r *runner) step(data []byte, pad int) {
	for range r.cycles {
		c := r.base + r.n
		r.n++
		var ids []automata.StateID
		if r.d != nil {
			ids = r.d.Step(data, pad)
		} else {
			r.ids = r.m.StepBytes(data, pad, r.ids[:0])
			ids = r.ids
		}
		if len(ids) > 0 {
			r.cycle(c, ids)
		}
	}
}

// finish pads and executes the final partial step and returns the run. A
// share's trace goes to the merge, and the runner's sink back to its model.
func (r *runner) finish() runOutput {
	if len(r.pend) > 0 {
		r.step(r.pend, r.sb-len(r.pend))
		r.pend = r.pend[:0]
	}
	out := r.end()
	switch s := r.sink.(type) {
	case *report.Trace:
		out.trace, r.sink = s, r.model
	case *report.Sunder:
		out.reportOn(s, max(r.reached, r.base+r.n))
	}
	return out
}
