package sunder

import (
	"fmt"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
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

// scanPrefiltered is the filtered whole-input scan: literal scan, window
// planning, windowed execution on clones of the pristine compile artifact.
// It never touches the engine's shared machine (and with it the
// Summarize/ReadReports state), so it serves Scan, ScanParallel and
// ScanBatch alike.
func (e *Engine) scanPrefiltered(input []byte, workers int) *ScanResult {
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

	units := funcsim.BytesToUnits(input, 4)
	rc := sched.RunConfig{Workers: workers, RecordEvents: true, Collector: col}
	var rr *sched.RunResult
	windows := int64(1)
	if p.bounded {
		shards := sched.PlanWindows(spans, totalCycles, p.align, p.overlap)
		rr = sched.WindowedRun(e.proto, e.nibble, units, shards, rc)
		windows = int64(len(shards))
	} else {
		// Cyclic automaton: windows cannot bound warm-up replay, so a hit
		// anywhere forces a full run — one window, nothing skipped. The
		// filter still wins on hit-free inputs (handled above).
		rr = sched.ParallelRun(e.proto, e.nibble, units, rc)
	}
	skipped := totalCycles - rr.KernelCycles
	notePrefilter(col, hits, windows, rr.KernelCycles, skipped)
	return e.schedResult(rr, input, windows, skipped)
}

// schedResult turns a scheduler run over input into a ScanResult: its
// merged events go through the same reduction tail (phantom filter, Match
// construction) as a runner's report cycles.
func (e *Engine) schedResult(rr *sched.RunResult, input []byte, windows, skipped int64) *ScanResult {
	red := reduction{su: int64(e.nibble.SymbolUnits), fed: int64(len(input))}
	red.deliver(rr.Events)
	return e.result(runOutput{
		stats: Stats{
			KernelCycles:     rr.KernelCycles,
			StallCycles:      rr.StallCycles,
			Flushes:          rr.Flushes,
			Reports:          rr.Reports,
			ReportCycles:     rr.ReportCycles,
			PrefilterWindows: windows,
			SkippedCycles:    skipped,
		},
		matches: red.matches,
		perPU:   rr.PerPU,
	})
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
