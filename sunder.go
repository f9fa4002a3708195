// Package sunder is a software reproduction of the Sunder in-SRAM pattern
// matching accelerator (Sadredini et al., MICRO 2021): a reconfigurable-
// rate automata processor with an in-place, memory-mapped reporting
// architecture.
//
// The package compiles rule sets (regular expressions or ANML automata)
// through the full Sunder pipeline — Glushkov NFA construction, FlexAmata-
// style nibble transformation, vectorized temporal striding to the chosen
// processing rate, placement onto 256×256 subarray processing units — and
// executes them on a bit-faithful architectural simulator that models state
// matching, the crossbar interconnect, and the in-subarray report region
// with its stalls, flushes, FIFO drain and summarization.
//
// Quick start:
//
//	eng, err := sunder.Compile([]sunder.Pattern{
//		{Expr: `GET /[a-z]+`, Code: 1},
//		{Expr: `\x00\x00EXPLOIT`, Code: 2},
//	}, sunder.DefaultOptions())
//	...
//	res, err := eng.Scan(packet)
//	for _, m := range res.Matches {
//		fmt.Printf("rule %d matched ending at byte %d\n", m.Code, m.Position)
//	}
package sunder

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/hardware"
	"sunder/internal/mapping"
	"sunder/internal/meta"
	"sunder/internal/regex"
	"sunder/internal/report"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// Pattern is one rule: a regular expression and the code its matches carry.
//
// Supported syntax: literals, ".", character classes, the escapes \d \D \w
// \W \s \S \n \t \r \xHH, grouping, alternation, "*", "+", "?", "{m,n}",
// a leading "(?i)" case-insensitivity flag, and a leading "^" anchor.
// Patterns that can match the empty string are rejected.
type Pattern struct {
	Expr string
	Code int32
}

// Options configures compilation and the simulated device.
type Options struct {
	// Rate is the symbol processing rate in nibbles per cycle: 1, 2 or 4
	// (4-, 8- or 16-bit symbols). Higher rates raise throughput at the
	// cost of more states (Table 3 of the paper).
	Rate int
	// ReportColumns is the per-subarray report-state budget m (default
	// 12). It is raised automatically if a rule set needs more.
	ReportColumns int
	// MetadataBits is the report-entry cycle-counter width n (default
	// 20); longer inputs write stride markers automatically.
	MetadataBits int
	// FIFO enables the FIFO drain strategy: the host continuously reads
	// report entries during execution, eliminating almost all stalls.
	FIFO bool
	// SummarizeOnFull replaces region flushes with in-place 16-row NOR
	// summarization for applications that only need "has this rule
	// fired" information.
	SummarizeOnFull bool
	// Minimize runs the certified minimization pipeline before placement:
	// interleaved dead-state pruning, backward-bisimulation merging and
	// cross-rule prefix collapse, plus alphabet class compression on the
	// byte automaton. Every rewrite emits a machine-checkable equivalence
	// certificate that compilation independently verifies against the
	// pre-minimization automaton; a certificate the checker rejects fails
	// the compile rather than ship a silently wrong engine. Scan output is
	// byte-identical with or without it.
	Minimize bool
	// Prefilter enables the literal-prefilter fast path (PrefilterOn):
	// required literals are extracted at compile time and input regions
	// that cannot contain a match are skipped. See PrefilterMode.
	Prefilter PrefilterMode
	// Backend selects the scan execution substrate: "nfa" (or "", the
	// default) is the bitvec NFA core; "dfa" is the lazy-DFA software
	// backend (on-demand determinization with a bounded state cache,
	// cleared when full, falling back to NFA stepping if the subset space
	// blows up); "auto" picks one of them at compile time from the
	// analyzer's shape statistics (see Info().Backend for the choice and its
	// reason). Both produce byte-identical matches, in the same order, and
	// Reports/ReportCycles accounting. "dfa" requires whole-byte cycles
	// (Rate 2 or 4) and fails compilation otherwise; "auto" never fails.
	// The backend is fixed at compile time and is only a substrate: every
	// entry point executes on it, ScanParallel shards it across workers,
	// and an engaged literal prefilter confines it to candidate windows.
	Backend string
}

// DefaultOptions returns the paper's default configuration: 16-bit
// processing with the FIFO drain strategy.
func DefaultOptions() Options {
	return Options{Rate: 4, ReportColumns: 12, MetadataBits: 20, FIFO: true}
}

// Match is one rule match.
type Match struct {
	// Position is the byte offset of the last byte of the match.
	Position int64
	// Code is the matched pattern's code.
	Code int32
}

// Stats reports device behaviour for a scan.
type Stats struct {
	// KernelCycles is the number of productive device cycles.
	KernelCycles int64
	// StallCycles is the cycles lost to reporting (flushes, overflow
	// waits, summarization).
	StallCycles int64
	// Flushes counts whole-region flushes (or FIFO overflow events).
	Flushes int64
	// Reports and ReportCycles mirror the paper's Table 1 metrics.
	Reports      int64
	ReportCycles int64
	// PrefilterWindows and SkippedCycles are populated by prefiltered
	// scans (Options.Prefilter): the number of candidate windows executed
	// and the device cycles the literal scan proved match-free and
	// skipped. KernelCycles + SkippedCycles equals the unfiltered
	// KernelCycles. Both are zero on unfiltered scans.
	PrefilterWindows int64
	SkippedCycles    int64
	// PrefilterStoppedAt is the input byte at which a prefiltered
	// whole-input scan stopped looking for literals, because the windows
	// of its hits so far would have cost about what the input does (or, on
	// an automaton with an unbounded dependence window, at its first hit):
	// the input then ran as one window, nothing skipped. It is zero when
	// the literal scan covered the input, on streams and on unfiltered
	// scans.
	PrefilterStoppedAt int64
}

// Overhead returns the reporting slowdown (kernel+stall)/kernel.
func (s Stats) Overhead() float64 {
	if s.KernelCycles == 0 {
		return 1
	}
	return float64(s.KernelCycles+s.StallCycles) / float64(s.KernelCycles)
}

// ScanResult holds the matches and statistics of one scan.
type ScanResult struct {
	// Matches are sorted by (Position, Code), on every backend and entry
	// point.
	Matches []Match
	Stats   Stats
	// PerPU breaks the device activity down by processing unit; summing
	// a field across it reproduces the corresponding Stats aggregate.
	PerPU []PUStats
}

// Engine is a compiled rule set configured on the simulated device. Its
// route is fixed at compile time: every entry point runs on the substrate
// Options.Backend resolved to (the machine or the lazy DFA), confined to
// candidate windows when the literal prefilter engaged.
//
// An engine is the compiled artifact plus its telemetry, and every method
// is safe for concurrent use: each call runs on runners of its own (a
// machine clone with its report model, or a lazy DFA), which it takes from
// the artifact and hands back when it returns — a Stream when it closes.
type Engine struct {
	// compiledArtifact is everything compilation produced. It is immutable
	// (but for its free list of runners, a cache) and shared by clones and
	// compile-cache hits; every other field is per-engine mutable state
	// (TestEngineStateOutsideArtifact).
	*compiledArtifact
	// tel is the collector attached by SetTelemetry; a runner gets it when
	// it is taken.
	tel atomic.Pointer[telemetry.Collector]
	// slot holds the engine's idle runner in front of the free list: the
	// one-runner calls (Scan, Summarize, ReadReports, NewStream) take it
	// with a Swap and hand it back with a CompareAndSwap (see take).
	slot atomic.Pointer[runner]
	// dfaRuns sums the lazy-DFA counters of every run on this engine
	// (DFAStats): a runner adds what changed while it was out.
	dfaRuns dfaCounters
}

// compiledArtifact is the immutable product of one compilation. The fields
// that change after compile, the free list of runners (idleMu,
// idle, idleAnchor), are a cache and not state: a runner taken from it is
// indistinguishable from a new one in everything a scan returns.
type compiledArtifact struct {
	opts    Options
	byteNFA *automata.Automaton
	nibble  *automata.UnitAutomaton
	place   *mapping.Placement
	// proto is the never-executed machine configured at compile time;
	// every machine runner steps a clone of it.
	proto *core.Machine
	// rank and ranked order proto's report table entries by (offset, code),
	// the order a cycle's matches go out in (rankEntries).
	rank, ranked []int32
	// minSum is the digest of the certified minimization run (zero value
	// unless Options.Minimize was set); symClasses is the verified symbol-
	// equivalence class count of the byte automaton (its effective alphabet
	// size), zero unless Minimize computed it.
	minSum     analysis.MinimizeSummary
	symClasses int
	// geo is the compiled automaton's window geometry, which cuts a run
	// into a prefilter's windows and ScanParallel's shares.
	geo geometry
	// pre is the literal-prefilter plan; nil unless Options.Prefilter is on.
	pre *prefilterPlan
	// onDFA says every call runs on the lazy DFA rather than the machine
	// (resolveBackend), and backendNote is its Info() annotation; metaIn is
	// the shape statistics fed to the selector.
	onDFA       bool
	backendNote string
	metaIn      meta.Inputs
	// dfaPlan is the lazy-DFA stepping plan over proto's NFA plan, so the
	// artifact holds one set of NFA tables; nil when the geometry is
	// unsupported.
	dfaPlan *dfa.Plan
	// Runners are mutable: machine clones or lazy DFAs, they wait between
	// calls on one free list, idle (guarded by idleMu, anchored by
	// idleAnchor; see takeIdle), so that every engine over this artifact
	// warms one set of runners and DFA caches.
	idleMu     sync.Mutex
	idle       weak.Pointer[idleRunners]
	idleAnchor sync.Pool
}

// newEngine returns an engine over art.
func newEngine(art *compiledArtifact) *Engine { return &Engine{compiledArtifact: art} }

// Compile builds an Engine from a pattern set.
func Compile(patterns []Pattern, opts Options) (*Engine, error) {
	ps := make([]regex.Pattern, len(patterns))
	for i, p := range patterns {
		ps[i] = regex.Pattern{Expr: p.Expr, Code: p.Code}
	}
	nfa, err := regex.CompileSet(ps)
	if err != nil {
		return nil, err
	}
	return compile(nfa, patterns, opts)
}

// CompileANML builds an Engine from an ANML automata network (the Micron
// AP / ANMLZoo interchange format; STE subset).
func CompileANML(r io.Reader, opts Options) (*Engine, error) {
	nfa, err := automata.ReadANML(r)
	if err != nil {
		return nil, err
	}
	return compile(nfa, nil, opts)
}

// compile is the one compile function: byte automaton in, an engine over a
// new immutable artifact out. patterns is the regex source of nfa when
// there is one (nil for ANML and programmatic automata); only the
// prefilter's AST literal extraction reads it. Every analysis runs once.
func compile(nfa *automata.Automaton, patterns []Pattern, opts Options) (*Engine, error) {
	if opts.Rate == 0 {
		opts.Rate = 4
	}
	ua, err := transform.ToRate(nfa, opts.Rate)
	if err != nil {
		return nil, err
	}
	art := &compiledArtifact{opts: opts, byteNFA: nfa, nibble: ua}
	if opts.Minimize {
		pre := ua.Clone()
		res := analysis.Minimize(ua)
		// The minimizer is certified, not trusted: verify its equivalence
		// certificate against the pre-minimization automaton and fail the
		// compile on rejection instead of shipping a wrong engine.
		if err := analysis.CheckCertificate(pre, ua, res.Cert); err != nil {
			return nil, fmt.Errorf("sunder: minimization certificate rejected: %w", err)
		}
		art.minSum = res.Summary()
	}
	// The certified symbol-class partition of the byte automaton serves both
	// Minimize's Info().SymbolClasses and the lazy DFA's row indexing.
	dfaOK, dfaReason := dfa.Supported(ua)
	classes := 0
	var classOf [256]uint16
	if opts.Minimize || dfaOK {
		sc := analysis.SymbolClasses(nfa)
		if err := analysis.CheckSymbolClasses(nfa, sc); err != nil {
			return nil, fmt.Errorf("sunder: symbol-class certificate rejected: %w", err)
		}
		if opts.Minimize {
			art.symClasses = sc.Count()
		}
		if dfaOK {
			classes = sc.Count()
			classOf = sc.Class
		}
	}

	cfg := core.DefaultConfig(opts.Rate)
	if opts.ReportColumns > 0 {
		cfg.ReportColumns = opts.ReportColumns
	}
	if opts.MetadataBits > 0 {
		cfg.MetadataBits = opts.MetadataBits
	}
	cfg.FIFO = opts.FIFO
	cfg.SummarizeOnFull = opts.SummarizeOnFull
	budget, err := mapping.AutoReportColumns(ua, cfg.ReportColumns)
	if err != nil {
		return nil, fmt.Errorf("sunder: rule set does not fit the device: %w", err)
	}
	cfg.ReportColumns = budget
	if art.place, err = mapping.Place(ua, cfg.ReportColumns); err != nil {
		return nil, fmt.Errorf("sunder: rule set does not fit the device: %w", err)
	}
	if art.proto, err = core.Configure(ua, art.place, cfg); err != nil {
		return nil, err
	}
	art.rank, art.ranked = rankEntries(art.proto.Reports().Entries())
	if dfaOK {
		// The lazy DFA steps the machine's plan: one set of NFA tables.
		if art.dfaPlan, err = dfa.PlanOver(art.proto.Plan(), classOf, classes); err != nil {
			return nil, err
		}
	}

	depth, bounded := sched.DependenceCycles(ua)
	art.geo = newGeometry(ua, depth, bounded)
	if opts.Prefilter == PrefilterOn {
		art.pre = buildPrefilter(nfa, art.geo, depth, patterns)
	}
	art.metaIn = meta.Inputs{
		ByteStates:    nfa.NumStates(),
		DeviceStates:  ua.NumStates(),
		ReportStates:  ua.NumReportStates(),
		Rate:          ua.Rate,
		SymbolUnits:   ua.SymbolUnits,
		SymbolClasses: classes,
		DFASupported:  dfaOK,
		DFAReason:     dfaReason,
	}
	if err := art.resolveBackend(); err != nil {
		return nil, err
	}
	return newEngine(art), nil
}

// CompileAutomaton builds an Engine directly from a byte-level automaton —
// the entry point for rule sets constructed programmatically (the workload
// generators, custom frontends) rather than from regex patterns or ANML.
func CompileAutomaton(nfa *automata.Automaton, opts Options) (*Engine, error) {
	return compile(nfa, nil, opts)
}

// Analyze runs the static IR analyzer over the engine's compiled automaton
// and placement, cross-checking against the source byte automaton on the
// given sample (may be nil). The report is advisory; a compiled engine has
// already passed the structural checks Configure enforces.
func (e *Engine) Analyze(sample []byte) *analysis.Report {
	return analysis.Analyze(e.nibble, analysis.Options{
		Source:        e.byteNFA,
		Placement:     e.place,
		ReportColumns: e.proto.Config().ReportColumns,
		EquivSample:   sample,
	})
}

// Scan runs input through the device, returning every match (the byte
// position where an occurrence ends, with its rule code) and the device
// statistics.
func (e *Engine) Scan(input []byte) (*ScanResult, error) {
	rs := [1]*runner{e.take()}
	defer e.give(rs[0])
	return e.scanOn(rs[:], input)
}

// Summarize scans input and returns, per rule code, whether the rule fired
// in it — the in-hardware report summarization of Section 5.1.2 (it
// stalls matching for a few cycles and clears the report region), read
// from the report region that scan wrote.
func (e *Engine) Summarize(input []byte) (map[int32]bool, error) {
	out := make(map[int32]bool)
	err := e.modelRun(input, func(model *report.Sunder) {
		for s := range model.Summarize() {
			for _, r := range e.nibble.States[s].Reports {
				out[r.Code] = true
			}
		}
	})
	return out, err
}

// modelRun scans input on a taken runner whose report model records the
// run, and has read read that model before the runner goes back. On the
// lazy DFA, which models no report region, the call's run feeds a model of
// its own: both substrates step the same plan and report the same states.
func (e *Engine) modelRun(input []byte, read func(*report.Sunder)) error {
	rn := e.take()
	defer e.give(rn)
	model := rn.model
	if model == nil {
		model = report.NewSunder(e.proto.Reports(), e.proto.Config())
		rn.sink = model
		defer func() { rn.sink = nil }()
	}
	// A prefiltered scan with no candidate window never touches the model.
	model.Reset()
	if _, err := e.scanOn([]*runner{rn}, input); err != nil {
		return err
	}
	read(model)
	return nil
}

// Verify cross-checks the architectural simulator against the functional
// simulator and the original byte automaton on the given input, returning
// an error on any divergence. It exists for validation and tests.
func (e *Engine) Verify(input []byte) error {
	return transform.EquivalentOnInput(e.byteNFA, e.nibble, input)
}

// Info describes the compiled configuration.
type Info struct {
	// Rate is the configured nibbles/cycle; BitsPerCycle = 4×Rate.
	Rate int
	// ByteStates is the state count of the original 8-bit automaton;
	// DeviceStates is after nibble transformation and striding.
	ByteStates   int
	DeviceStates int
	// PUs is the number of 256-state processing units configured.
	PUs int
	// ReportColumns is the per-PU report budget actually used.
	ReportColumns int
	// RegionCapacity is the per-PU report-entry capacity.
	RegionCapacity int
	// PrunedStates is the number of dead states removed at compile time by
	// the prune rounds the certified minimizer interleaves (zero unless
	// Options.Minimize was set).
	PrunedStates int
	// MergedStates is the number of states folded away by the certified
	// minimizer's bisimulation and prefix-collapse quotients; SymbolClasses
	// is the verified symbol-equivalence class count of the byte automaton
	// (its effective alphabet size). Both are zero unless Options.Minimize
	// was set.
	MergedStates  int
	SymbolClasses int
	// PrefilterStrategy is the literal scanner chosen at compile time
	// ("memchr", "shift", "swar", "aho-corasick"), "off" when prefiltering is
	// disabled, or "off (<reason>)" when the rule set admits matches
	// without a usable literal and the filter disabled itself.
	PrefilterStrategy string
	// PrefilterLiterals are the extracted required literals (every match
	// contains at least one); nil unless the prefilter is active.
	PrefilterLiterals []string
	// Backend is the resolved scan backend ("nfa" or "dfa"), annotated
	// with the selection reason when Options.Backend was "auto".
	Backend string
	// DFAStates is the number of DFA states the lazy-DFA backend has
	// constructed in this engine's runs so far, on every entry point
	// (DFAStats; always zero on other backends).
	DFAStates int
}

// ReportRecord is one decoded entry of the device's report region: the
// cycle it was written (reconstructed across stride markers) and the rule
// codes that fired.
type ReportRecord struct {
	// Position is the byte offset of the last byte processed in the
	// reporting cycle.
	Position int64
	// Codes are the rule codes recorded in the entry.
	Codes []int32
}

// ReadReports scans input and decodes the report regions of every
// processing unit that scan wrote — the paper's "easy access mechanism":
// collecting reports is just reading memory rows back. It reflects entries
// still resident in the regions, so it is meaningful for engines compiled
// without the FIFO drain (the host owns the read pointer there); with FIFO
// enabled the host has already consumed drained entries.
func (e *Engine) ReadReports(input []byte) ([]ReportRecord, error) {
	var out []ReportRecord
	rate, symbolUnits := int64(e.opts.Rate), int64(e.nibble.SymbolUnits)
	err := e.modelRun(input, func(model *report.Sunder) {
		for pu := 0; pu < e.proto.NumPUs(); pu++ {
			for _, rec := range model.ReadReports(pu) {
				r := ReportRecord{
					// The entry's cycle covers rate units; report at the
					// last symbol of the cycle.
					Position: (rec.Cycle*rate + rate - 1) / symbolUnits,
				}
				for _, s := range rec.States {
					for _, rep := range e.nibble.States[s].Reports {
						if !slices.Contains(r.Codes, rep.Code) {
							r.Codes = append(r.Codes, rep.Code)
						}
					}
				}
				out = append(out, r)
			}
		}
	})
	return out, err
}

// Info returns the engine's compiled configuration.
func (e *Engine) Info() Info {
	strategy, lits := e.pre.describe()
	return Info{
		Rate:              e.opts.Rate,
		ByteStates:        e.byteNFA.NumStates(),
		DeviceStates:      e.nibble.NumStates(),
		PUs:               e.proto.NumPUs(),
		ReportColumns:     e.proto.Config().ReportColumns,
		RegionCapacity:    e.proto.Config().RegionCapacity(),
		PrunedStates:      e.minSum.Pruned,
		MergedStates:      e.minSum.BisimMerged + e.minSum.PrefixMerged,
		SymbolClasses:     e.symClasses,
		PrefilterStrategy: strategy,
		PrefilterLiterals: lits,
		Backend:           e.backendNote,
		DFAStates:         int(e.DFAStats().States),
	}
}

// ThroughputGbps estimates the device's sustained input throughput in
// Gbit/s: the Sunder operating frequency (3.6 GHz at 14nm, Table 5) times
// the configured bits per cycle, divided by the given reporting overhead
// (use ScanResult.Stats.Overhead(), or 1 for the stall-free bound).
func (e *Engine) ThroughputGbps(overhead float64) float64 {
	return hardware.ThroughputAtRate(4*e.opts.Rate, overhead)
}
