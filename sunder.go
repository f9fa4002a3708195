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
	// Prune removes dead states (unreachable, useless, never-matching,
	// subsumed) from the compiled automaton before placement, shrinking
	// the mapped footprint without changing the scan output.
	Prune bool
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
	// default) is the sequential bitvec NFA core; "dfa" is the lazy-DFA
	// software backend (on-demand determinization with a bounded state
	// cache, cleared when full, falling back to NFA stepping if the subset
	// space blows up); "parallel" makes Scan shard across workers like
	// ScanParallel; "auto" resolves among them at compile time from the
	// analyzer's shape statistics (see Info().Backend for the choice and its
	// reason). Every backend produces byte-identical matches and
	// Reports/ReportCycles accounting. "dfa" requires whole-byte cycles
	// (Rate 2 or 4) and fails compilation otherwise; "auto" never fails.
	// Every entry point executes on the backend (this field, or a per-call
	// ScanOptions.Backend override), and an engaged literal prefilter
	// confines it to candidate windows — on the lazy DFA under "dfa", on the
	// machine under the others.
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
	Matches []Match
	Stats   Stats
	// PerPU breaks the device activity down by processing unit; summing
	// a field across it reproduces the corresponding Stats aggregate.
	PerPU []PUStats
}

// Engine is a compiled rule set configured on the simulated device.
//
// An engine owns one simulated machine, and the sequential entry points
// (Scan, NewStream, Summarize) reset and mutate it — they must not run
// concurrently on the same engine. ScanParallel and ScanBatch never touch
// the shared machine (workers run on clones of the pristine compile
// artifact), so any number of them may run concurrently with each other;
// use Clone to get independent engines for concurrent sequential use.
type Engine struct {
	// compiledArtifact is everything compilation produced. It is immutable
	// (but for its free list of DFA runners, a cache) and shared by clones
	// and compile-cache hits; every other field is per-engine mutable state
	// (TestEngineStateOutsideArtifact).
	*compiledArtifact
	// machine is the engine's own device, a clone of the artifact's proto,
	// and model its report region, which the sequential entry points'
	// machine runs feed (Summarize and ReadReports read it).
	machine *core.Machine
	model   *report.Sunder
	// tel mirrors the collector attached by SetTelemetry. The parallel
	// paths read it instead of e.machine.Telemetry(): they promise never to
	// touch the shared machine, which a concurrent sequential scan may be
	// mutating.
	tel atomic.Pointer[telemetry.Collector]
	// nfaRun and dfaRun are the sequential entry points' runners, built on
	// first use. Like the shared machine they belong to Scan/NewStream and
	// are never touched by the parallel paths.
	nfaRun *machineRunner
	dfaRun *dfaRunner
}

// compiledArtifact is the immutable product of one compilation. The fields
// that change after compile, the free list of DFA runners (dfaMu, dfaIdle,
// dfaPool), are a cache and not state: a runner taken from it is
// indistinguishable from a new one in everything a scan returns.
type compiledArtifact struct {
	opts    Options
	byteNFA *automata.Automaton
	nibble  *automata.UnitAutomaton
	place   *mapping.Placement
	// proto is the never-executed machine configured at compile time;
	// engines and parallel workers clone it.
	proto *core.Machine
	// pruned counts the dead states removed at compile time (Options.Prune,
	// plus the prune rounds inside Options.Minimize).
	pruned int
	// minSum is the digest of the certified minimization run (zero value
	// unless Options.Minimize was set); symClasses is the verified symbol-
	// equivalence class count of the byte automaton (its effective alphabet
	// size), zero unless Minimize computed it.
	minSum     analysis.MinimizeSummary
	symClasses int
	// pre is the literal-prefilter plan; nil unless Options.Prefilter is on.
	pre *prefilterPlan
	// backend is the resolved scan backend (meta.Backend* constant) and
	// backendNote its Info() annotation; autoChoice is what "auto" resolves
	// to for this shape (computed for every engine so per-call overrides can
	// use it); metaIn is the shape statistics fed to the selector.
	backend     string
	backendNote string
	autoChoice  meta.Choice
	metaIn      meta.Inputs
	// dfaPlan is the lazy-DFA stepping plan over proto's NFA plan, so the
	// artifact holds one set of NFA tables; nil when the geometry is
	// unsupported. Runners built from it are mutable: an engine owns its
	// sequential one, and the parallel entry points' private ones wait
	// between calls on one free list, dfaIdle (guarded by dfaMu, anchored
	// by dfaPool; see takeDFA), so that every engine over this artifact
	// warms one set of caches.
	dfaPlan *dfa.Plan
	dfaMu   sync.Mutex
	dfaIdle weak.Pointer[idleDFA]
	dfaPool sync.Pool
}

// newEngine returns an engine over art with its own pristine machine.
func newEngine(art *compiledArtifact) *Engine {
	return &Engine{compiledArtifact: art, machine: art.proto.Clone(), model: report.NewSunder(art.proto.Reports(), art.proto.Config())}
}

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
	if opts.Prune {
		art.pruned = analysis.Prune(ua).Removed()
	}
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
		art.pruned += res.Pruned
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
	if dfaOK {
		// The lazy DFA steps the machine's plan: one set of NFA tables.
		if art.dfaPlan, err = dfa.PlanOver(art.proto.Plan(), classOf, classes); err != nil {
			return nil, err
		}
	}

	depth, bounded := sched.DependenceCycles(ua)
	if opts.Prefilter == PrefilterOn {
		art.pre = buildPrefilter(nfa, ua, depth, bounded, patterns)
	}
	art.metaIn = meta.Inputs{
		ByteStates:       nfa.NumStates(),
		DeviceStates:     ua.NumStates(),
		ReportStates:     ua.NumReportStates(),
		Rate:             ua.Rate,
		SymbolUnits:      ua.SymbolUnits,
		DependenceWindow: depth,
		Bounded:          bounded,
		SymbolClasses:    classes,
		DFASupported:     dfaOK,
		DFAReason:        dfaReason,
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
	return fromByteNFA(nfa, opts)
}

// fromByteNFA compiles a byte automaton that has no regex source.
func fromByteNFA(nfa *automata.Automaton, opts Options) (*Engine, error) {
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

// Scan resets the engine and runs input through the device, returning every
// match (the byte position where an occurrence ends, with its rule code)
// and the device statistics.
func (e *Engine) Scan(input []byte) (*ScanResult, error) {
	rt, err := e.resolve("", shardIfParallel)
	if err != nil {
		return nil, err
	}
	// Scan is a sequential entry point: prefilter windows run on its one
	// runner, and only the "parallel" backend fans out.
	workers := 1
	if rt.leg == legSharded {
		workers = ScanOptions{}.workers()
	}
	var rs [1]windowRunner
	return e.scanOn(rt, rs[:], false, input, workers)
}

// Summarize returns, per rule code, whether the rule has fired since the
// engine's last summarize/reset — the in-hardware report summarization of
// Section 5.1.2 (it stalls matching for a few cycles and clears the report
// region).
func (e *Engine) Summarize() map[int32]bool {
	out := make(map[int32]bool)
	for s := range e.model.Summarize() {
		for _, r := range e.nibble.States[s].Reports {
			out[r.Code] = true
		}
	}
	return out
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
	// PrunedStates is the number of dead states removed at compile time:
	// the Options.Prune pass plus the prune rounds the certified minimizer
	// interleaves (zero unless Options.Prune or Options.Minimize was set).
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
	// Backend is the resolved scan backend ("nfa", "dfa", "parallel"),
	// annotated with the selection reason when Options.Backend was "auto".
	Backend string
	// DFAStates is the number of DFA states the lazy-DFA backend has
	// constructed on the sequential runner so far (zero before the first
	// DFA scan, and always zero on other backends).
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

// ReadReports decodes the report regions of every processing unit — the
// paper's "easy access mechanism": collecting reports is just reading
// memory rows back. It reflects entries still resident in the regions, so
// it is meaningful for engines compiled without the FIFO drain (the host
// owns the read pointer there); with FIFO enabled the host has already
// consumed drained entries.
func (e *Engine) ReadReports() []ReportRecord {
	var out []ReportRecord
	rate := int64(e.machine.Config().Rate)
	symbolUnits := int64(e.nibble.SymbolUnits)
	for pu := 0; pu < e.machine.NumPUs(); pu++ {
		for _, rec := range e.model.ReadReports(pu) {
			r := ReportRecord{
				// The entry's cycle covers rate units; report at the
				// last symbol of the cycle.
				Position: (rec.Cycle*rate + rate - 1) / symbolUnits,
			}
			seen := map[int32]bool{}
			for _, s := range rec.States {
				for _, rep := range e.nibble.States[s].Reports {
					if !seen[rep.Code] {
						seen[rep.Code] = true
						r.Codes = append(r.Codes, rep.Code)
					}
				}
			}
			out = append(out, r)
		}
	}
	return out
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
		PrunedStates:      e.pruned,
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
