package sunder

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sunder/internal/automata"
	"sunder/internal/prefilter"
	"sunder/internal/regex"
	"sunder/internal/report"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
)

// PrefilterMode selects the literal-prefilter fast path. The zero value is
// off: existing configurations keep their exact behaviour, including
// cycle-for-cycle identical Stats.
type PrefilterMode int

const (
	// PrefilterOff disables prefiltering (the default).
	PrefilterOff PrefilterMode = iota
	// PrefilterOn extracts required literals from the rule set at compile
	// time and scans input for them before driving the simulated device;
	// regions with no literal occurrence are skipped entirely. Matches,
	// Reports and ReportCycles stay byte-identical to an unfiltered scan;
	// Stats.KernelCycles drops to the executed windows, with the remainder
	// accounted in Stats.SkippedCycles. Rule sets without usable literals
	// take a conservative no-filter verdict and scan unfiltered.
	PrefilterOn
)

// Prefilter telemetry counter names, populated on engines with an
// attached Telemetry when the prefilter is active: filtered scans run,
// literal occurrences found, candidate windows executed, and the split of
// device cycles into scanned (executed) and skipped. Exported so servers
// and tools can read them back via Telemetry.CounterValue.
const (
	MetricPrefilterScans         = "prefilter_scans"
	MetricPrefilterHits          = "prefilter_hits"
	MetricPrefilterWindows       = "prefilter_windows"
	MetricPrefilterScannedCycles = "prefilter_scanned_cycles"
	MetricPrefilterSkippedCycles = "prefilter_skipped_cycles"
)

// notePrefilter records one filtered scan's outcome. With telemetry
// detached (nil collector) it is a single branch and zero allocations.
func notePrefilter(col *telemetry.Collector, hits, windows, scanned, skipped int64) {
	if col == nil {
		return
	}
	col.Counter(MetricPrefilterScans).Inc()
	col.Counter(MetricPrefilterHits).Add(hits)
	col.Counter(MetricPrefilterWindows).Add(windows)
	col.Counter(MetricPrefilterScannedCycles).Add(scanned)
	col.Counter(MetricPrefilterSkippedCycles).Add(skipped)
}

// prefilterPlan is the compile-time product of literal extraction: the
// literal set, the scanner chosen for it, and the window geometry derived
// from the automaton's dependence window. It is immutable after compile
// (the scanner is read-only), so cached artifacts and engine clones share
// one plan.
type prefilterPlan struct {
	lits     [][]byte
	scanner  prefilter.Scanner // nil when the verdict is "no filter"
	strategy string
	reason   string // why the filter disabled itself (scanner == nil)
	// fold marks a canonical case-folded literal set: the scanner matches
	// any ASCII case variant, and tail-hazard checks fold too.
	fold bool

	maxLit int // longest literal, for cross-chunk carry in streams
	rate   int // units per cycle
	su     int // units per byte

	bounded bool // false: cyclic automaton, windows cannot bound warm-up
	align   int64
	overlap int64
	// maxMatchBytes bounds a match's byte length when bounded; a literal
	// occurrence [q, e) therefore confines the report to the cycles of
	// bytes [e-1, q+maxMatchBytes).
	maxMatchBytes int64
}

func (p *prefilterPlan) enabled() bool { return p != nil && p.scanner != nil }

// newPrefilterPlan finishes an extraction into an executable plan for the
// compiled geometry: ua at the device rate, with the dependence window the
// compile already measured.
func newPrefilterPlan(ua *automata.UnitAutomaton, depth int, bounded bool, ex prefilter.Extraction) *prefilterPlan {
	rate, su := ua.Rate, ua.SymbolUnits
	p := &prefilterPlan{rate: rate, su: su}
	if !ex.OK {
		p.strategy = "off"
		p.reason = ex.Reason
		return p
	}
	p.lits = ex.Literals
	p.fold = ex.FoldCase
	p.scanner = prefilter.NewScannerFold(ex.Literals, ex.FoldCase)
	p.strategy = p.scanner.Strategy()
	if p.fold {
		p.strategy += "+fold"
	}
	p.maxLit = ex.MaxLen
	p.bounded = bounded
	p.align = sched.Alignment(rate, su)
	p.overlap = sched.Overlap(depth, p.align)
	if bounded {
		p.maxMatchBytes = (int64(depth)+1)*int64(rate)/int64(su) + 2
	}
	return p
}

// buildPrefilter extracts the rule set's required literals, once. When the
// rule set came from regex patterns the AST extractor runs first and wins
// if it yields an engaged plan — concatenation islands typically beat
// automaton suffix walks on patterns with wide-class tails; otherwise (and
// for ANML/automaton compiles, patterns nil) the automaton extractor
// decides, including the reason of a no-filter verdict.
func buildPrefilter(nfa *automata.Automaton, ua *automata.UnitAutomaton, depth int, bounded bool, patterns []Pattern) *prefilterPlan {
	if lits, fold, ok := requiredPatternLiterals(patterns); ok && len(patterns) > 0 {
		ex := prefilter.FromLiteralsFold(lits, fold, prefilter.DefaultConfig())
		if pl := newPrefilterPlan(ua, depth, bounded, ex); pl.enabled() {
			return pl
		}
	}
	return newPrefilterPlan(ua, depth, bounded, prefilter.Extract(nfa, prefilter.DefaultConfig()))
}

// requiredPatternLiterals unions the per-pattern AST literal sets; every
// pattern must yield one for the union to be a required set of the whole
// rule set (any match is a match of some pattern). If any pattern's set is
// case-folded the whole union is folded to canonical form: a fold-aware
// scan of exact literals over-approximates their occurrences, which is
// sound (extra candidate windows, never missed ones).
func requiredPatternLiterals(patterns []Pattern) ([][]byte, bool, bool) {
	var all [][]byte
	fold := false
	for _, p := range patterns {
		lits, f, ok := regex.RequiredLiteralsFold(p.Expr)
		if !ok {
			return nil, false, false
		}
		fold = fold || f
		all = append(all, lits...)
	}
	return all, fold, true
}

// hitSpan converts a literal occurrence at bytes [q, e) into the cycle
// range where a match containing it can report: no earlier than the cycle
// of byte e-1 (the match ends at or after the occurrence) and, when the
// dependence window is bounded, no later than the cycle of byte
// q+maxMatchBytes. One slack cycle on each side absorbs unit/cycle
// boundary effects.
func (p *prefilterPlan) hitSpan(q, e int) sched.CycleSpan {
	start := int64(e-1)*int64(p.su)/int64(p.rate) - 1
	end := (int64(q)+p.maxMatchBytes)*int64(p.su)/int64(p.rate) + 2
	return sched.CycleSpan{Start: start, End: end}
}

// planSpans scans input for literal occurrences and returns candidate
// cycle spans plus the hit count. When the padded tail can complete a
// literal (see prefilter.TailHit), the final cycle is appended as a span:
// phantom pad reports fire there in an unfiltered run and the filtered
// Stats must count them identically.
func (p *prefilterPlan) planSpans(input []byte, totalCycles int64, padUnits int) (spans []sched.CycleSpan, hits int64) {
	p.scanner.Scan(input, func(q, e int) {
		hits++
		spans = append(spans, p.hitSpan(q, e))
	})
	if padUnits > 0 {
		padBytes := (padUnits + p.su - 1) / p.su
		if prefilter.TailHitFold(input, p.lits, padBytes, p.fold) {
			spans = append(spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
		}
	}
	return spans, hits
}

// scanPrefiltered is the filtered whole-input scan: the literal scan plans
// candidate spans, and runners of leg l execute their windows (runShares) —
// one for Scan and a ScanBatch worker, up to len(rs) for ScanParallel.
// Runners are acquired only once there is a span, so a literal-free input
// touches none.
func (e *Engine) scanPrefiltered(l leg, rs []windowRunner, private bool, input []byte) *ScanResult {
	p := e.pre
	inputUnits := int64(len(input)) * int64(p.su)
	totalCycles := (inputUnits + int64(p.rate) - 1) / int64(p.rate)
	col := e.telemetryCollector()

	spans, hits := p.planSpans(input, totalCycles, int(totalCycles*int64(p.rate)-inputUnits))

	if len(spans) == 0 {
		// No literal anywhere: the rule set cannot match, and no phantom
		// pad report can fire. Skip the entire input.
		notePrefilter(col, hits, 0, 0, totalCycles)
		return e.result(runOutput{stats: Stats{SkippedCycles: totalCycles}})
	}
	if !p.bounded {
		// Cyclic automaton: windows cannot bound warm-up replay, so a hit
		// anywhere forces a full run — one window, nothing skipped. The
		// filter still wins on hit-free inputs (handled above).
		spans = append(spans[:0], sched.CycleSpan{End: totalCycles})
	}
	slices.SortFunc(spans, bySpanStart)
	out := e.runShares(l, rs, private, input, spans, totalCycles)
	out.stats.SkippedCycles = totalCycles - out.stats.KernelCycles
	notePrefilter(col, hits, out.stats.PrefilterWindows, out.stats.KernelCycles, out.stats.SkippedCycles)
	return e.result(out)
}

// runShares runs the windows of spans, sorted, on up to len(rs) runners of
// leg l: runner g takes the cycles from its share of the spans to the next
// share's (a window that straddles two shares is opened by both), and the
// runs merge in input order. On the machine the shares record their report
// cycles, and the merge feeds them to one report model, as a sequential
// run would have.
func (e *Engine) runShares(l leg, rs []windowRunner, private bool, input []byte, spans []sched.CycleSpan, total int64) runOutput {
	k := min(len(rs), len(spans))
	if k == 1 {
		return e.runWindows(e.acquire(rs, 0, l, private), input, spans, 0, total)
	}
	cuts := make([]int64, k+1)
	for g := 1; g < k; g++ {
		c := max(spans[g*len(spans)/k].Start, 0)
		cuts[g] = c - c%e.pre.align
	}
	cuts[k] = total
	outs := make([]runOutput, k)
	var wg sync.WaitGroup
	for g := range k {
		var rn windowRunner
		if l == legDFA {
			rn = e.acquire(rs, g, l, private)
		} else {
			rn = e.privateMachineRunner(new(report.Trace))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[g] = e.runWindows(rn, input, spans, cuts[g], cuts[g+1])
		}()
	}
	wg.Wait()
	out := outs[0]
	for _, o := range outs[1:] {
		out.add(o)
	}
	if l != legDFA {
		model := e.newModel()
		for _, o := range outs {
			o.trace.Replay(model.OnReportCycle)
		}
		out.reportOn(model, total)
	}
	return out
}

// runWindows executes, as one run on rn, the windows spans call for among
// cycles [from, to) of input; finish pads the final cycle if a window
// holds it.
func (e *Engine) runWindows(rn windowRunner, input []byte, spans []sched.CycleSpan, from, to int64) runOutput {
	rn.reset(nil, min((to-from)*int64(e.pre.rate)/int64(e.pre.su), int64(len(input))))
	w := windowLoop{rn: rn, p: e.pre, hist: input, fed: int64(len(input)), spans: spans, proc: from}
	w.advance(to)
	out := rn.finish()
	out.stats.PrefilterWindows = w.windows
	return out
}

// windowLoop is the one loop that runs a prefilter's candidate windows, for
// whole inputs (runWindows) and streams (streamFilter) alike: it decides the
// cycles from proc on in order, skipping those no span covers and having rn
// execute the rest. A window opens cold with a silent warm-up replay of the
// dependence window (windowRunner.resetAt) and closes at a gap wider than
// that replay; a shorter gap is executed through. Windows open and close on
// aligned cycles, which fall between two bytes.
type windowLoop struct {
	rn windowRunner
	p  *prefilterPlan
	// hist holds input bytes [histBase, fed).
	hist          []byte
	histBase, fed int64
	// spans are the candidate spans not yet passed, in Start order; proc is
	// the next cycle to decide; hot reports that rn's state equals the
	// sequential state entering cycle proc.
	spans []sched.CycleSpan
	proc  int64
	hot   bool
	// skipped counts the cycles proven match-free, windows those opened;
	// rn counts the executed ones.
	skipped, windows int64
}

// bySpanStart orders spans as windowLoop decides them.
func bySpanStart(a, b sched.CycleSpan) int { return cmp.Compare(a.Start, b.Start) }

// bytes returns the buffered input of the aligned cycles [from, to), cut at
// the bytes fed so far: the final cycle's pad is the runner's.
func (w *windowLoop) bytes(from, to int64) []byte {
	lo, hi := w.p.cycleByte(from), min(w.p.cycleByte(to), w.fed)
	return w.hist[lo-w.histBase : hi-w.histBase]
}

// advance decides every cycle below limit.
func (w *windowLoop) advance(limit int64) {
	for w.proc < limit {
		// Drop spans fully behind the frontier (their cycles executed).
		for len(w.spans) > 0 && w.spans[0].End <= w.proc {
			w.spans = w.spans[1:]
		}
		if len(w.spans) == 0 {
			w.skip(limit)
			return
		}
		sp := w.spans[0]
		start := sp.Start - sp.Start%w.p.align
		if start > w.proc && (!w.hot || start-w.proc > w.p.overlap) {
			w.skip(min(start, limit))
			continue
		}
		if !w.hot {
			// Open a window at proc: warm up cold from the aligned base
			// one dependence window back.
			base := max(w.proc-w.p.overlap, 0)
			base -= base % w.p.align
			w.rn.resetAt(base, w.bytes(base, w.proc))
			w.windows++
		}
		end := min(sched.RoundUp(sp.End, w.p.align), limit)
		if end <= w.proc {
			// Span tail beyond the frontier: wait for more input.
			return
		}
		w.rn.feed(w.bytes(w.proc, end))
		w.proc, w.hot = end, true
	}
}

func (w *windowLoop) skip(to int64) {
	if to > w.proc {
		w.skipped += to - w.proc
		w.proc, w.hot = to, false
		w.rn.skipTo(to)
	}
}

// cycleByte is the input offset of the first byte of cycle c, an aligned
// cycle.
func (p *prefilterPlan) cycleByte(c int64) int64 { return c * int64(p.rate) / int64(p.su) }

// PrefilterInfo describes the compiled prefilter for diagnostics.
func (p *prefilterPlan) describe() (strategy string, literals []string) {
	if p == nil {
		return "off", nil
	}
	if p.scanner == nil {
		if p.reason != "" {
			return fmt.Sprintf("off (%s)", p.reason), nil
		}
		return "off", nil
	}
	literals = make([]string, len(p.lits))
	for i, l := range p.lits {
		literals[i] = string(l)
	}
	return p.strategy, literals
}
