// Package analysis is the static verification and optimization layer over
// the compiled-automaton IR. It runs between compilation (transform.ToRate)
// and mapping/configuration, and provides two services:
//
//   - Analyze verifies the IR: structural validity, liveness (unreachable
//     states, dead report rows), nibble-chain phase consistency, report-code
//     coherence, mapping/crossbar capacity, shard-safety classification via
//     the dependence window, and a bounded differential-equivalence check
//     against the source byte automaton through the functional simulator.
//
//   - Minimize removes states proven dead (unreachable, useless,
//     never-match, subsumed) and merges equivalent ones, shrinking the
//     mapped footprint while provably preserving the scan event stream,
//     and emits a certificate that CheckCertificate re-verifies (see
//     prune.go, minimize.go and DESIGN.md §4.10).
//
// Diagnostics carry a severity: Error marks an invariant violation (a
// miscompiled or unmappable automaton), Warn marks a semantic hazard, and
// Info marks optimization opportunities and informational classification.
// The shipped compile pipeline produces zero Error/Warn diagnostics on
// every workload; CI enforces that via `sunder-gen -check`.
package analysis

import (
	"fmt"
	"io"

	"sunder/internal/automata"
	"sunder/internal/mapping"
	"sunder/internal/sched"
)

// Severity ranks a diagnostic.
type Severity int

// Severity levels, in increasing order.
const (
	// SevInfo marks advisory findings: prunable states, shard
	// classification, equivalence confirmations.
	SevInfo Severity = iota
	// SevWarn marks semantic hazards that do not break the machine but
	// indicate compiler waste or ambiguous behaviour.
	SevWarn
	// SevError marks invariant violations: the automaton is miscompiled
	// or cannot be mapped.
	SevError
)

// String returns the severity's display name.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pass names the analyzer pass that produced the finding.
	Pass string
	// Sev is the finding's severity.
	Sev Severity
	// State is the state the finding is anchored to, or -1 when the
	// finding concerns the whole automaton.
	State automata.StateID
	// Msg is the human-readable description.
	Msg string
}

// String formats the diagnostic as "pass: [sev] msg" with the state when
// present.
func (d Diagnostic) String() string {
	if d.State >= 0 {
		return fmt.Sprintf("%s: [%s] state %d: %s", d.Pass, d.Sev, d.State, d.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", d.Pass, d.Sev, d.Msg)
}

// Options configures Analyze.
type Options struct {
	// Source, when non-nil, is the byte automaton the IR was compiled
	// from; it enables the differential-equivalence pass.
	Source *automata.Automaton
	// Placement, when non-nil, is verified against the IR (location
	// bounds, report-region discipline, cluster-local edges). When nil,
	// the capacity pass checks feasibility instead: every component must
	// fit a cluster and admit a report-column budget.
	Placement *mapping.Placement
	// ReportColumns is the preferred report-column budget for the
	// feasibility check (default 12, the paper's allocation).
	ReportColumns int
	// EquivInputs is the number of generated inputs for the equivalence
	// pass (default 4).
	EquivInputs int
	// EquivLen is the length in bytes of each generated input (default
	// 512).
	EquivLen int
	// EquivSample, when non-nil, adds a prefix of this real input stream
	// (up to 4KB) to the equivalence battery.
	EquivSample []byte
}

// Report is the result of one Analyze call.
type Report struct {
	// Diags holds every finding, in pass order.
	Diags []Diagnostic

	// Structural summary of the analyzed automaton.
	States       int
	Edges        int
	ReportStates int

	// Liveness classification: states removable without changing the
	// scan event stream, by reason, and how many of them occupy report
	// rows (Minimize's prune rounds remove them).
	Unreachable    int
	Useless        int
	NeverMatch     int
	Subsumed       int
	DeadReportRows int

	// Shard-safety classification: the dependence window in cycles when
	// Bounded, else the automaton is cyclic and parallel scans fall back
	// to sequential execution.
	DependenceWindow int
	Bounded          bool
}

// add appends a formatted diagnostic.
func (r *Report) add(pass string, sev Severity, state automata.StateID, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{Pass: pass, Sev: sev, State: state, Msg: fmt.Sprintf(format, args...)})
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

// Findings returns the diagnostics at or above the given severity.
func (r *Report) Findings(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Sev >= min {
			out = append(out, d)
		}
	}
	return out
}

// Err returns a non-nil error summarizing the report iff it contains an
// Error-severity diagnostic.
func (r *Report) Err() error {
	for _, d := range r.Diags {
		if d.Sev == SevError {
			return fmt.Errorf("analysis: %d invariant violation(s), first: %s", r.Count(SevError), d)
		}
	}
	return nil
}

// Prunable returns the number of states the liveness pass proved dead.
func (r *Report) Prunable() int {
	return r.Unreachable + r.Useless + r.NeverMatch + r.Subsumed
}

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "analysis: %d states, %d edges, %d report states\n", r.States, r.Edges, r.ReportStates)
	fmt.Fprintf(w, "  liveness: %d prunable (%d unreachable, %d useless, %d never-match, %d subsumed; %d dead report rows)\n",
		r.Prunable(), r.Unreachable, r.Useless, r.NeverMatch, r.Subsumed, r.DeadReportRows)
	if r.Bounded {
		fmt.Fprintf(w, "  shard: dependence window %d cycle(s) — shardable\n", r.DependenceWindow)
	} else {
		fmt.Fprintf(w, "  shard: dependence window unbounded (cyclic) — sequential fallback\n")
	}
	fmt.Fprintf(w, "  diagnostics: %d error(s), %d warning(s), %d info\n",
		r.Count(SevError), r.Count(SevWarn), r.Count(SevInfo))
	for _, d := range r.Diags {
		fmt.Fprintf(w, "    %s\n", d)
	}
}

// maxDetailDiags caps per-state diagnostics emitted by one pass; the
// remainder is summarized so a badly broken automaton cannot flood output.
const maxDetailDiags = 8

// Analyze runs every verification pass over the IR and returns the report.
// It never mutates ua.
func Analyze(ua *automata.UnitAutomaton, opts Options) *Report {
	r := &Report{
		States:       ua.NumStates(),
		Edges:        ua.NumEdges(),
		ReportStates: ua.NumReportStates(),
	}
	if err := ua.Validate(); err != nil {
		// Structure is a prerequisite for every other pass; stop here.
		r.add("structure", SevError, -1, "invalid automaton: %v", err)
		return r
	}
	livenessPass(r, ua)
	chainPass(r, ua)
	reportCodePass(r, ua)
	capacityPass(r, ua, opts)
	shardPass(r, ua)
	if opts.Source != nil {
		equivalencePass(r, ua, opts)
	}
	return r
}

// livenessPass classifies dead states. Dead states are advisory findings
// (the machine still runs correctly with them configured); Minimize's
// prune rounds remove them.
func livenessPass(r *Report, ua *automata.UnitAutomaton) {
	reasons := classifyDead(ua)
	detail := 0
	for i, reason := range reasons {
		if reason == live {
			continue
		}
		switch reason {
		case deadUnreachable:
			r.Unreachable++
		case deadUseless:
			r.Useless++
		case deadNeverMatch:
			r.NeverMatch++
		case deadSubsumed:
			r.Subsumed++
		}
		if len(ua.States[i].Reports) > 0 {
			r.DeadReportRows++
		}
		if detail < maxDetailDiags {
			detail++
			r.add("liveness", SevInfo, automata.StateID(i), "prunable (%s)", reasonName(reason))
		}
	}
	if extra := r.Prunable() - detail; extra > 0 {
		r.add("liveness", SevInfo, -1, "%d more prunable state(s) not listed", extra)
	}
}

// reasonName returns the display name of a dead-state reason.
func reasonName(reason deadReason) string {
	switch reason {
	case deadUnreachable:
		return "unreachable"
	case deadUseless:
		return "useless: no path to a report state"
	case deadNeverMatch:
		return "never-match: a vector position accepts no unit"
	case deadSubsumed:
		return "subsumed by a dominating state"
	default:
		return "live"
	}
}

// chainPass verifies nibble-transform consistency: multi-nibble chains must
// stay phase-aligned with original symbol boundaries, and reports must land
// on symbol-final units. A violation means a transformation stage (nibble
// decomposition, striding, or minimization) produced a malformed chain —
// e.g. a low-nibble state orphaned from its high-nibble partner.
func chainPass(r *Report, ua *automata.UnitAutomaton) {
	su := ua.SymbolUnits
	if su <= 1 {
		return
	}
	phases := computePhases(ua)
	errs := 0
	emit := func(s automata.StateID, format string, args ...any) {
		if errs < maxDetailDiags {
			r.add("chain", SevError, s, format, args...)
		}
		errs++
	}
	for i := range ua.States {
		st := &ua.States[i]
		ph := phases[i]
		if ph == 0 {
			continue // unreachable; the liveness pass owns that finding
		}
		if ph&(ph-1) != 0 {
			emit(automata.StateID(i), "reachable at multiple symbol phases %s: high/low nibble chains are mixed", phaseList(ph, su))
			continue
		}
		p := trailingZeros(ph)
		maxOff := -1
		for _, rep := range st.Reports {
			if int(rep.Offset) > maxOff {
				maxOff = int(rep.Offset)
			}
			if (p+int(rep.Offset))%su != su-1 {
				emit(automata.StateID(i), "report offset %d at phase %d ends mid-symbol (symbol units %d)", rep.Offset, p, su)
			}
		}
		// A residual (no successors) must have a don't-care tail after
		// its last report so a match ending mid-vector still fires.
		if len(st.Succ) == 0 && maxOff >= 0 {
			all := automata.AllUnits(ua.UnitBits)
			for pos := maxOff + 1; pos < ua.Rate; pos++ {
				if st.Match[pos] != all {
					emit(automata.StateID(i), "residual tail position %d is not don't-care after final report offset %d", pos, maxOff)
				}
			}
		}
	}
	if errs > maxDetailDiags {
		r.add("chain", SevError, -1, "%d more chain violation(s) not listed", errs-maxDetailDiags)
	}
}

// computePhases returns, per state, the bitset of unit offsets (mod
// SymbolUnits) at which the state's vector can begin. Start states inject
// only at cycle boundaries that are symbol boundaries, so they seed phase
// 0; each edge advances the phase by Rate. Unreachable states keep an
// empty bitset. chainPass verifies each reachable state has exactly one
// phase; the minimization passes partition by the bitset so merging never
// mixes high/low nibble chains.
func computePhases(ua *automata.UnitAutomaton) []uint16 {
	su := ua.SymbolUnits
	phases := make([]uint16, len(ua.States))
	var stack []automata.StateID
	for i := range ua.States {
		if ua.States[i].Start != automata.StartNone {
			phases[i] |= 1
			stack = append(stack, automata.StateID(i))
		}
	}
	step := uint(ua.Rate % su)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := rotateLeft(phases[s], step, su)
		for _, t := range ua.States[s].Succ {
			if phases[t]|next != phases[t] {
				phases[t] |= next
				stack = append(stack, t)
			}
		}
	}
	return phases
}

// rotateLeft rotates the low `width` bits of v left by k.
func rotateLeft(v uint16, k uint, width int) uint16 {
	if k == 0 {
		return v
	}
	mask := uint16(1)<<uint(width) - 1
	v &= mask
	return ((v << k) | (v >> (uint(width) - k))) & mask
}

// trailingZeros returns the index of the lowest set bit of v (v != 0).
func trailingZeros(v uint16) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// phaseList formats a phase bitset for diagnostics.
func phaseList(ph uint16, width int) string {
	out := "{"
	first := true
	for p := 0; p < width; p++ {
		if ph&(1<<uint(p)) == 0 {
			continue
		}
		if !first {
			out += ","
		}
		out += fmt.Sprint(p)
		first = false
	}
	return out + "}"
}

// reportCodePass checks report-code coherence: every report with the same
// Origin must carry the same Code. The simulators deduplicate per cycle by
// (Offset, Origin) only, so two codes under one origin would make the
// surviving code depend on state iteration order.
func reportCodePass(r *Report, ua *automata.UnitAutomaton) {
	codeOf := make(map[int32]int32)
	warned := make(map[int32]bool)
	for i := range ua.States {
		for _, rep := range ua.States[i].Reports {
			if c, ok := codeOf[rep.Origin]; !ok {
				codeOf[rep.Origin] = rep.Code
			} else if c != rep.Code && !warned[rep.Origin] {
				warned[rep.Origin] = true
				r.add("reportcode", SevWarn, automata.StateID(i),
					"origin %d carries codes %d and %d: deduplication makes the reported code order-dependent", rep.Origin, c, rep.Code)
			}
		}
	}
}

// capacityPass checks that the automaton fits the device. With a placement
// it verifies the placement's invariants; without one it checks
// feasibility: each connected component must fit one cluster and a report-
// column budget must exist.
func capacityPass(r *Report, ua *automata.UnitAutomaton, opts Options) {
	if opts.Placement != nil {
		verifyPlacement(r, ua, opts.Placement)
		return
	}
	// Component capacity: union-find over the undirected edge relation.
	parent := make([]int, len(ua.States))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range ua.States {
		for _, t := range ua.States[i].Succ {
			if rx, ry := find(i), find(int(t)); rx != ry {
				parent[rx] = ry
			}
		}
	}
	size := make(map[int]int)
	for i := range parent {
		size[find(i)]++
	}
	over := 0
	for root, n := range size {
		if n > mapping.StatesPerCluster {
			if over < maxDetailDiags {
				r.add("capacity", SevError, automata.StateID(root),
					"connected component with %d states exceeds cluster capacity %d", n, mapping.StatesPerCluster)
			}
			over++
		}
	}
	if over > maxDetailDiags {
		r.add("capacity", SevError, -1, "%d more oversized component(s) not listed", over-maxDetailDiags)
	}
	preferred := opts.ReportColumns
	if preferred <= 0 {
		preferred = 12
	}
	// The budget rule only, not core.Build: Place's plain-column overflow
	// (RandomForest at rate 1) is a placement defect, not the IR's.
	if _, err := mapping.AutoReportColumns(ua, preferred); err != nil && over == 0 {
		r.add("capacity", SevError, -1, "no feasible report-column budget: %v", err)
	}
}

// verifyPlacement checks a concrete placement against the IR: complete and
// in-bounds locations, no column sharing, report-region discipline, and
// cluster-local edges (the global switches only join a cluster's four PUs).
func verifyPlacement(r *Report, ua *automata.UnitAutomaton, p *mapping.Placement) {
	if len(p.Of) != len(ua.States) {
		r.add("placement", SevError, -1, "placement covers %d states, automaton has %d", len(p.Of), len(ua.States))
		return
	}
	if p.ReportColumns < 1 || p.ReportColumns > mapping.StatesPerPU {
		r.add("placement", SevError, -1, "report-column budget %d out of range [1,%d]", p.ReportColumns, mapping.StatesPerPU)
		return
	}
	errs := 0
	emit := func(s automata.StateID, format string, args ...any) {
		if errs < maxDetailDiags {
			r.add("placement", SevError, s, format, args...)
		}
		errs++
	}
	seen := make(map[mapping.Loc]automata.StateID)
	regionStart := mapping.StatesPerPU - p.ReportColumns
	for s := range ua.States {
		loc := p.Of[s]
		if loc.PU < 0 || loc.PU >= p.NumPUs || loc.Col < 0 || loc.Col >= mapping.StatesPerPU {
			emit(automata.StateID(s), "location PU %d col %d out of bounds (%d PUs)", loc.PU, loc.Col, p.NumPUs)
			continue
		}
		if prev, dup := seen[loc]; dup {
			emit(automata.StateID(s), "shares PU %d col %d with state %d", loc.PU, loc.Col, prev)
		}
		seen[loc] = automata.StateID(s)
		isReport := len(ua.States[s].Reports) > 0
		if isReport && loc.Col < regionStart {
			emit(automata.StateID(s), "report state placed outside the report region (col %d < %d)", loc.Col, regionStart)
		}
		if !isReport && loc.Col >= regionStart {
			emit(automata.StateID(s), "plain state placed inside the report region (col %d >= %d)", loc.Col, regionStart)
		}
		for _, t := range ua.States[s].Succ {
			if mapping.ClusterOf(loc.PU) != mapping.ClusterOf(p.Of[t].PU) {
				emit(automata.StateID(s), "edge to state %d crosses clusters (PU %d -> PU %d)", t, loc.PU, p.Of[t].PU)
			}
		}
	}
	if errs > maxDetailDiags {
		r.add("placement", SevError, -1, "%d more placement violation(s) not listed", errs-maxDetailDiags)
	}
}

// shardPass classifies the automaton for the sharded parallel scan path.
func shardPass(r *Report, ua *automata.UnitAutomaton) {
	d, bounded := sched.DependenceCycles(ua)
	r.DependenceWindow, r.Bounded = d, bounded
	if bounded {
		r.add("shard", SevInfo, -1, "dependence window %d cycle(s): shardable for parallel scan", d)
	} else {
		r.add("shard", SevInfo, -1, "dependence window unbounded (cyclic automaton): parallel scan falls back to sequential")
	}
}
