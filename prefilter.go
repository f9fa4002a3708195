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

// planSpans scans input for literal occurrences and returns candidate
// cycle spans plus the hit count. When the padded tail can complete a
// literal (see prefilter.TailHit), the final cycle is appended as a span:
// phantom pad reports fire there in an unfiltered run and the filtered
// Stats must count them identically.
func (e *Engine) planSpans(input []byte, totalCycles int64, padUnits int) (spans []sched.CycleSpan, hits int64) {
	// The callback reaches the plan and geometry through e alone: one
	// more captured pointer puts its closure in the next size class.
	e.pre.scanner.Scan(input, func(q, end int) {
		hits++
		spans = append(spans, e.pre.hitSpan(&e.geo, q, end))
	})
	if padUnits > 0 {
		padBytes := (padUnits + int(e.geo.su) - 1) / int(e.geo.su)
		if prefilter.TailHitFold(input, e.pre.lits, padBytes, e.pre.fold) {
			spans = append(spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
		}
	}
	return spans, hits
}

// scanPrefiltered is the filtered whole-input scan: the literal scan plans
// candidate spans, and the call's runners execute their windows (runShares) —
// one for Scan and a ScanBatch worker, up to len(rs) for ScanParallel.
// Runners are acquired only once there is a span, so a literal-free input
// touches none.
func (e *Engine) scanPrefiltered(rs []windowRunner, private bool, input []byte) *ScanResult {
	g := &e.geo
	totalCycles := g.cycles(int64(len(input)))
	col := e.telemetryCollector()

	spans, hits := e.planSpans(input, totalCycles, int(totalCycles*g.rate-int64(len(input))*g.su))

	if len(spans) == 0 {
		// No literal anywhere: the rule set cannot match, and no phantom
		// pad report can fire. Skip the entire input.
		notePrefilter(col, hits, 0, 0, totalCycles)
		return e.result(runOutput{stats: Stats{SkippedCycles: totalCycles}})
	}
	if !g.bounded {
		// Cyclic automaton: windows cannot bound warm-up replay, so a hit
		// anywhere forces a full run — one window, nothing skipped. The
		// filter still wins on hit-free inputs (handled above).
		spans = append(spans[:0], sched.CycleSpan{End: totalCycles})
	}
	slices.SortFunc(spans, bySpanStart)
	out := e.runShares(rs, private, input, spans, totalCycles)
	out.stats.PrefilterWindows = out.windows
	out.stats.SkippedCycles = totalCycles - out.stats.KernelCycles
	notePrefilter(col, hits, out.stats.PrefilterWindows, out.stats.KernelCycles, out.stats.SkippedCycles)
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
