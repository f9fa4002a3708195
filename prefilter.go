package sunder

import (
	"fmt"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/prefilter"
	"sunder/internal/regex"
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
	// take a conservative no-filter verdict and scan unfiltered. Engagement
	// is also decided per scan: a whole-input scan (Scan, ScanParallel,
	// ScanBatch) whose hits so far would have its windows cover more than a
	// substrate-set share of the bytes scanned stops looking for literals
	// and runs the input as one window (Stats.PrefilterStoppedAt).
	PrefilterOn
)

// Prefilter telemetry counter names, populated on engines with an
// attached Telemetry when the prefilter is active: filtered scans run,
// literal occurrences found before scanning stopped, candidate windows
// executed, the split of device cycles into scanned (executed) and
// skipped, and the whole-input scans that stopped looking for literals
// (Stats.PrefilterStoppedAt). Exported so servers and tools can read them
// back via Telemetry.CounterValue.
const (
	MetricPrefilterScans         = "prefilter_scans"
	MetricPrefilterHits          = "prefilter_hits"
	MetricPrefilterWindows       = "prefilter_windows"
	MetricPrefilterScannedCycles = "prefilter_scanned_cycles"
	MetricPrefilterSkippedCycles = "prefilter_skipped_cycles"
	MetricPrefilterBailouts      = "prefilter_bailouts"
)

// notePrefilter records one filtered scan's outcome. With telemetry
// detached (nil collector) it is a single branch and zero allocations.
func notePrefilter(col *telemetry.Collector, hits, windows, scanned, skipped int64, bailed bool) {
	if col == nil {
		return
	}
	col.Counter(MetricPrefilterScans).Inc()
	col.Counter(MetricPrefilterHits).Add(hits)
	col.Counter(MetricPrefilterWindows).Add(windows)
	col.Counter(MetricPrefilterScannedCycles).Add(scanned)
	col.Counter(MetricPrefilterSkippedCycles).Add(skipped)
	if bail := col.Counter(MetricPrefilterBailouts); bailed {
		bail.Inc()
	}
}

// prefilterPlan is the compile-time product of literal extraction: the
// literal set, the scanner chosen for it, and the reach of a literal hit,
// derived from the automaton's dependence window; its windows are cut by
// the artifact's geometry. It is immutable after compile (the scanner is
// read-only), so cached artifacts and engine clones share one plan.
type prefilterPlan struct {
	lits     [][]byte
	scanner  prefilter.Scanner // nil when the verdict is "no filter"
	strategy string
	reason   string // why the filter disabled itself (scanner == nil)
	// fold marks a canonical case-folded literal set: the scanner matches
	// any ASCII case variant, and tail-hazard checks fold too.
	fold bool

	maxLit int // longest literal, for cross-chunk carry in streams
	// maxMatchBytes bounds a match's byte length when the dependence
	// window is bounded; a literal occurrence [q, e) therefore confines the
	// report to the cycles of bytes [e-1, q+maxMatchBytes).
	maxMatchBytes int64
}

func (p *prefilterPlan) enabled() bool { return p != nil && p.scanner != nil }

// newPrefilterPlan finishes an extraction into an executable plan for the
// compiled geometry g, whose dependence window is depth cycles.
func newPrefilterPlan(g geometry, depth int, ex prefilter.Extraction) *prefilterPlan {
	p := &prefilterPlan{}
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
	if g.bounded {
		p.maxMatchBytes = (int64(depth)+1)*g.rate/g.su + 2
	}
	return p
}

// buildPrefilter extracts the rule set's required literals, once. When the
// rule set came from regex patterns the AST extractor runs first and wins
// if it yields an engaged plan — concatenation islands typically beat
// automaton suffix walks on patterns with wide-class tails; otherwise (and
// for ANML/automaton compiles, patterns nil) the automaton extractor
// decides, including the reason of a no-filter verdict.
func buildPrefilter(nfa *automata.Automaton, g geometry, depth int, patterns []Pattern) *prefilterPlan {
	if lits, fold, ok := requiredPatternLiterals(patterns); ok && len(patterns) > 0 {
		ex := prefilter.FromLiteralsFold(lits, fold, prefilter.DefaultConfig())
		if pl := newPrefilterPlan(g, depth, ex); pl.enabled() {
			return pl
		}
	}
	return newPrefilterPlan(g, depth, prefilter.Extract(nfa, prefilter.DefaultConfig()))
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
func (p *prefilterPlan) hitSpan(g *geometry, q, e int) sched.CycleSpan {
	start := int64(e-1)*g.su/g.rate - 1
	end := (int64(q)+p.maxMatchBytes)*g.su/g.rate + 2
	return sched.CycleSpan{Start: start, End: end}
}

// A whole-input scan decides per call whether its prefilter earns its
// place. It scans for literals in checkpoints at firstCheckpoint input
// bytes, then doubling; at a checkpoint it charges the windows its hits so
// far would run, their cycles plus one warm-up per window, against the
// cycles of the bytes scanned. Once that share exceeds the substrate's bail
// share, the windows would cost about what the whole input does, and the
// scan stops looking: the input runs as one window. A checkpoint is decided
// when a hit past it arrives, on the hits before it: without one, the
// windows planned so far are the whole input's, and of several checkpoints
// passed since the last hit the latest has the lowest share. The lazy DFA
// steps a cycle in a few nanoseconds, about what the literal scan spends on
// a byte, so it bails once a sixteenth of the cycles would run; the machine
// is about ten times slower per cycle, and the scan pays for itself there
// until half of them would. DESIGN.md §4.14 has the measurements.
const (
	firstCheckpoint  = 1 << 10
	bailShareDFA     = 1.0 / 16
	bailShareMachine = 1.0 / 2
)

// maxKeptSpans caps the span scratch a runner keeps between scans: 64 KiB.
const maxKeptSpans = 4 << 10

// literalProbe is one whole-input literal scan, the scanner's Hits: the
// candidate spans of the hits so far, and where it stopped. It is the
// scan's one allocation, 48 bytes; before the per-scan rule a literal-free
// scan allocated three, 64 bytes.
type literalProbe struct {
	e     *Engine
	spans []sched.CycleSpan
	// next is the next checkpoint: a hit ending past it decides the latest
	// checkpoint below its end.
	next int
	// stoppedAt is the checkpoint that stopped the scan or, on an
	// automaton with an unbounded dependence window, the end of its first
	// hit; 0 while scanning.
	stoppedAt int
}

// Hit decides the checkpoint the occurrence [q, end) passed, if any, then
// adds its span. An automaton without a bounded dependence window stops at
// its first hit, which forces a full run.
func (p *literalProbe) Hit(q, end int) bool {
	g := &p.e.geo
	if g.bounded && end > p.next {
		for 2*p.next < end {
			p.next *= 2
		}
		share := bailShareMachine
		if p.e.onDFA {
			share = bailShareDFA
		}
		if float64(windowCycles(g, p.spans)) > share*float64(g.cycles(int64(p.next))) {
			p.stoppedAt = p.next
			return false
		}
		p.next *= 2
	}
	p.spans = append(p.spans, p.e.pre.hitSpan(g, q, end))
	if !g.bounded {
		p.stoppedAt = end
		return false
	}
	return true
}

// windowCycles is the cycles windowLoop would run for spans, in the order
// the scanner found them: their aligned cycles, the gaps it executes
// through, and one warm-up of overlap cycles per window opened. A span that
// starts within a warm-up of the open window's end extends it; any other
// opens a window. The checkpoints double, so deciding them all reads each
// span about twice.
func windowCycles(g *geometry, spans []sched.CycleSpan) int64 {
	var cost int64
	open := int64(-1) // the open window's end
	for _, sp := range spans {
		start := max(sp.Start, 0)
		start -= start % g.align
		end := sched.RoundUp(sp.End, g.align)
		if open < 0 || start > open+g.overlap {
			cost += g.overlap
			open = start
		}
		cost += max(end-open, 0)
		open = max(open, end)
	}
	return cost
}

// planSpans scans input for literal occurrences and returns candidate
// cycle spans plus the hit count, or, when scanning stopped (literalProbe),
// one span over the input and the byte it stopped at. When the padded tail
// can complete a literal (see prefilter.TailHit), the final cycle is
// appended as a span: phantom pad reports fire there in an unfiltered run
// and the filtered Stats must count them identically.
func (e *Engine) planSpans(buf []sched.CycleSpan, input []byte, totalCycles int64, padUnits int) (spans []sched.CycleSpan, hits int64, stoppedAt int) {
	p := &literalProbe{e: e, spans: buf, next: firstCheckpoint}
	e.pre.scanner.ScanUntil(input, p)
	spans, hits = p.spans, int64(len(p.spans))
	if p.stoppedAt > 0 {
		return append(spans[:0], sched.CycleSpan{End: totalCycles}), hits, p.stoppedAt
	}
	if padUnits > 0 {
		padBytes := (padUnits + int(e.geo.su) - 1) / int(e.geo.su)
		if prefilter.TailHitFold(input, e.pre.lits, padBytes, e.pre.fold) {
			spans = append(spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
		}
	}
	return spans, hits, 0
}

// scanPrefiltered is the filtered whole-input scan: the literal scan plans
// candidate spans, and the call's runners execute their windows (runShares) —
// one for Scan and a ScanBatch worker, up to len(rs) for ScanParallel, which
// cuts a scan that stopped looking into even shares.
func (e *Engine) scanPrefiltered(rs []*runner, input []byte) *ScanResult {
	g := &e.geo
	totalCycles := g.cycles(int64(len(input)))
	col := e.tel.Load()

	// The spans are planned into the first runner's scratch, which it keeps
	// unless a scan grew it large.
	rn := rs[0]
	spans, hits, stoppedAt := e.planSpans(rn.spans[:0], input, totalCycles, int(totalCycles*g.rate-int64(len(input))*g.su))
	if cap(spans) <= maxKeptSpans {
		rn.spans = spans[:0]
	}

	if len(spans) == 0 {
		// No literal anywhere: the rule set cannot match, and no phantom
		// pad report can fire. Skip the entire input.
		notePrefilter(col, hits, 0, 0, totalCycles, false)
		return e.result(runOutput{stats: Stats{SkippedCycles: totalCycles}})
	}
	if !g.bounded {
		// Cyclic automaton: windows cannot bound warm-up replay, so a hit
		// anywhere (the scan stopped at the first) or a tail hit forces a
		// full run — one window, nothing skipped. The filter still wins on
		// hit-free inputs (handled above).
		spans = append(spans[:0], sched.CycleSpan{End: totalCycles})
	}
	slices.SortFunc(spans, bySpanStart)
	out := e.runShares(rs, input, spans, totalCycles)
	out.stats.PrefilterWindows = out.windows
	out.stats.SkippedCycles = totalCycles - out.stats.KernelCycles
	out.stats.PrefilterStoppedAt = int64(stoppedAt)
	notePrefilter(col, hits, out.stats.PrefilterWindows, out.stats.KernelCycles, out.stats.SkippedCycles, stoppedAt > 0)
	return e.result(out)
}

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
