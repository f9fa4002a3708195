package faults

import (
	"fmt"
	"sort"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
)

// Stats summarizes one guarded run.
type Stats struct {
	// Injected is the injector's manifestation tally (copied at Stats time).
	Injected Counts

	// Detected fault manifestations by detection mechanism. Scrub counts
	// configuration bits repaired, Parity counts bad report-entry slots,
	// Audit counts missing (silently dropped) entries, Divergence counts
	// window attempts whose behaviour diverged from the shadow simulator.
	DetectedScrub      int64
	DetectedParity     int64
	DetectedAudit      int64
	DetectedDivergence int64

	// Recoveries counts windows that committed after at least one rewind.
	Recoveries int64
	// Quarantines counts quarantine events; QuarantinedPUs lists the
	// defective PU of each event (its whole cluster is vacated).
	Quarantines    int64
	QuarantinedPUs []int

	// CommittedCycles is productive progress; ReExecutedCycles were run and
	// thrown away by rewinds; BackoffCycles is the stall penalty charged
	// between retries.
	CommittedCycles  int64
	ReExecutedCycles int64
	BackoffCycles    int64
}

// Detected returns the total detected manifestations.
func (s Stats) Detected() int64 {
	return s.DetectedScrub + s.DetectedParity + s.DetectedAudit + s.DetectedDivergence
}

// Slowdown returns the recovery overhead: total cycles spent (committed,
// re-executed and backoff) over committed cycles. 1.0 means no fault ever
// forced a rewind.
func (s Stats) Slowdown() float64 {
	if s.CommittedCycles == 0 {
		return 1
	}
	return float64(s.CommittedCycles+s.ReExecutedCycles+s.BackoffCycles) / float64(s.CommittedCycles)
}

// reportCycle buffers one report cycle until its window commits.
type reportCycle struct {
	cycle  int64
	states []automata.StateID
}

// Guard drives a machine through checkpointed windows with fault detection
// and rollback recovery (see the package comment for the protocol). Reports
// are only released to the OnReportCycle callback when their window commits
// clean, so a consumer never observes state that is later rolled back.
//
// The guard owns the machine for the duration of the run: it resets it,
// attaches the injector as its fault hook, and may replace it wholesale
// when a quarantine remaps states onto spare PUs — always read the current
// machine and placement through Machine() and Placement().
//
// A guard is single-use — one Run over one input — and, like most Go
// values, not safe for concurrent use.
type Guard struct {
	pol   Policy
	a     *automata.UnitAutomaton
	cfg   core.Config
	place *mapping.Placement
	m     *core.Machine
	inj   *Injector
	sim   *funcsim.UnitSimulator

	telDetected    *telemetry.Counter
	telRecoveries  *telemetry.Counter
	telQuarantined *telemetry.Counter

	onReport func(cycle int64, states []automata.StateID)

	windowUnits int
	pending     []funcsim.Unit
	window      int
	finished    bool
	err         error

	ckpt      *core.Snapshot
	ckptSim   *funcsim.SimSnapshot
	ckptMap   []int // snapshot PU -> current machine PU; nil = identity
	auditBase []int64

	buffered   []reportCycle
	failCount  map[int]int64
	sparesUsed int
	stats      Stats

	mScratch, sScratch []automata.StateID
}

// NewGuard wraps machine m (built from automaton a and placement place)
// in a recovery guard. The machine and the shadow simulator are reset to
// cycle zero and the injector is attached as the machine's fault hook. A
// nil injector gets one built from pol, so callers only construct their
// own when defects must persist across several guarded runs.
func NewGuard(m *core.Machine, a *automata.UnitAutomaton, place *mapping.Placement, pol Policy, inj *Injector) (*Guard, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults()
	if inj == nil {
		var err error
		if inj, err = NewInjector(pol); err != nil {
			return nil, err
		}
	}
	g := &Guard{
		pol:         pol,
		a:           a,
		cfg:         m.Config(),
		place:       place,
		m:           m,
		inj:         inj,
		sim:         funcsim.NewUnitSimulator(a),
		windowUnits: pol.CheckpointInterval * m.Config().Rate,
		failCount:   make(map[int]int64),
	}
	m.Reset()
	m.AttachFaults(inj)
	g.checkpoint()
	return g, nil
}

// AttachTelemetry registers the guard's and injector's counters in c and
// (re-)attaches c to the machine so it survives quarantine rebuilds.
func (g *Guard) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		g.telDetected, g.telRecoveries, g.telQuarantined = nil, nil, nil
		g.inj.AttachTelemetry(nil)
		return
	}
	g.telDetected = c.Counter(MetricDetected)
	g.telRecoveries = c.Counter(MetricRecoveries)
	g.telQuarantined = c.Counter(MetricQuarantined)
	g.inj.AttachTelemetry(c)
	g.m.AttachTelemetry(c)
}

// OnReportCycle sets the committed-report callback: cycle is the machine
// cycle, states the reporting automaton states (valid only for the call).
func (g *Guard) OnReportCycle(fn func(cycle int64, states []automata.StateID)) {
	g.onReport = fn
}

// Machine returns the current machine (replaced by quarantine).
func (g *Guard) Machine() *core.Machine { return g.m }

// Placement returns the current placement (replaced by quarantine).
func (g *Guard) Placement() *mapping.Placement { return g.place }

// Injector returns the attached injector.
func (g *Guard) Injector() *Injector { return g.inj }

// Err returns the sticky error that stopped the guard, if any.
func (g *Guard) Err() error { return g.err }

// Stats returns the run statistics so far.
func (g *Guard) Stats() Stats {
	s := g.stats
	s.Injected = g.inj.Counts()
	s.QuarantinedPUs = append([]int(nil), g.stats.QuarantinedPUs...)
	return s
}

// feed appends input units and executes every complete window they form.
func (g *Guard) feed(units []funcsim.Unit) error {
	if g.err != nil {
		return g.err
	}
	if g.finished {
		g.err = fmt.Errorf("faults: Run on a finished guard")
		return g.err
	}
	g.pending = append(g.pending, units...)
	for len(g.pending) >= g.windowUnits {
		if err := g.executeWindow(g.pending[:g.windowUnits]); err != nil {
			return err
		}
		g.pending = g.pending[g.windowUnits:]
	}
	return nil
}

// finish executes the remaining partial window (padded to the rate) and
// seals the guard.
func (g *Guard) finish() error {
	g.finished = true
	if len(g.pending) == 0 {
		return nil
	}
	units := funcsim.PadUnits(g.pending, g.cfg.Rate)
	g.pending = nil
	return g.executeWindow(units)
}

// Run executes units to the end of the input: every complete window, then
// the final partial one padded to the rate. An error is sticky.
func (g *Guard) Run(units []funcsim.Unit) (Stats, error) {
	err := g.feed(units)
	if err == nil {
		err = g.finish()
	}
	return g.Stats(), err
}

// executeWindow runs one window to commit, rolling back and retrying on
// detection and escalating to quarantine when retries exhaust.
func (g *Guard) executeWindow(units []funcsim.Unit) error {
	window := g.window
	g.window++
	retry := 0
	for attempt := 0; ; attempt++ {
		g.inj.BeginWindow(window, attempt)
		executed, diverged := g.execAttempt(units)
		det := g.detect(diverged)
		if det == 0 {
			if retry > 0 || attempt > 0 {
				g.stats.Recoveries++
				if g.telRecoveries != nil {
					g.telRecoveries.Inc()
				}
			}
			g.commit(executed)
			return nil
		}
		if g.telDetected != nil {
			g.telDetected.Add(det)
		}
		g.stats.ReExecutedCycles += executed
		if retry >= g.pol.MaxRetries {
			if err := g.quarantine(); err != nil {
				g.err = err
				return err
			}
			// Fresh hardware gets a fresh retry budget; spares bound the
			// total number of quarantines, so the loop terminates.
			retry = 0
			continue
		}
		retry++
		g.stats.BackoffCycles += int64(g.pol.BackoffCycles) << uint(retry-1)
		g.rollback()
	}
}

// execAttempt steps the machine and the shadow simulator in lockstep over
// the window's units, buffering report cycles and cross-checking behaviour.
// It stops early on a per-cycle report divergence; otherwise it finishes
// with an active-state-set cross-check.
func (g *Guard) execAttempt(units []funcsim.Unit) (executed int64, diverged bool) {
	rate := g.cfg.Rate
	for off := 0; off < len(units); off += rate {
		cycle := g.m.KernelCycles()
		g.mScratch = g.m.Step(units[off:off+rate], g.mScratch[:0])
		g.sScratch = g.sim.Step(units[off:off+rate], g.sScratch[:0])
		executed++
		if !sameIDSet(g.mScratch, g.sScratch) {
			g.implicate(g.mScratch, g.sScratch)
			return executed, true
		}
		if len(g.mScratch) > 0 {
			g.buffered = append(g.buffered, reportCycle{
				cycle:  cycle,
				states: append([]automata.StateID(nil), g.mScratch...),
			})
		}
	}
	g.mScratch = g.m.ActiveStates(g.mScratch[:0])
	simActive := g.sim.Active()
	bad := simActive.Count() != len(g.mScratch)
	for _, s := range g.mScratch {
		if !simActive.Get(int(s)) {
			bad = true
		}
	}
	if bad {
		g.sScratch = g.sScratch[:0]
		simActive.ForEach(func(i int) bool {
			g.sScratch = append(g.sScratch, automata.StateID(i))
			return true
		})
		g.implicate(g.mScratch, g.sScratch)
		return executed, true
	}
	return executed, false
}

// implicate charges the PUs owning the states in the symmetric difference
// of the machine's and the simulator's report/active sets.
func (g *Guard) implicate(machine, sim []automata.StateID) {
	inSim := make(map[automata.StateID]bool, len(sim))
	for _, s := range sim {
		inSim[s] = true
	}
	inMachine := make(map[automata.StateID]bool, len(machine))
	for _, s := range machine {
		inMachine[s] = true
	}
	for _, s := range machine {
		if !inSim[s] {
			g.failCount[g.place.Of[s].PU]++
		}
	}
	for _, s := range sim {
		if !inMachine[s] {
			g.failCount[g.place.Of[s].PU]++
		}
	}
}

// detect runs the window-boundary detection pass — configuration scrubbing,
// report parity verification, region audit — and folds in any behavioural
// divergence found during execution. It returns the number of detected
// manifestations and accumulates per-PU implication evidence.
func (g *Guard) detect(diverged bool) int64 {
	var det int64
	scrub := g.m.ScrubConfig()
	for pu, n := range scrub.PerPU {
		if n > 0 {
			g.failCount[pu] += int64(n)
		}
	}
	det += int64(scrub.RepairedBits)
	g.stats.DetectedScrub += int64(scrub.RepairedBits)

	par := g.m.VerifyParity()
	for pu, n := range par.PerPU {
		if n > 0 {
			g.failCount[pu] += int64(n)
		}
	}
	det += int64(par.BadSlots)
	g.stats.DetectedParity += int64(par.BadSlots)

	audit := g.m.AuditRegions()
	for pu, d := range audit.PerPU {
		var base int64
		if pu < len(g.auditBase) {
			base = g.auditBase[pu]
		}
		if delta := d - base; delta > 0 {
			g.failCount[pu] += delta
			det += delta
			g.stats.DetectedAudit += delta
		}
	}

	if diverged {
		det++
		g.stats.DetectedDivergence++
	}
	return det
}

// commit releases the window's buffered reports and advances the
// checkpoint past it.
func (g *Guard) commit(executed int64) {
	if g.onReport != nil {
		for i := range g.buffered {
			g.onReport(g.buffered[i].cycle, g.buffered[i].states)
		}
	}
	g.buffered = g.buffered[:0]
	g.stats.CommittedCycles += executed
	g.checkpoint()
	clear(g.failCount)
}

// checkpoint captures the machine and simulator state and the audit
// baseline at the current (just-committed) position.
func (g *Guard) checkpoint() {
	g.ckpt = g.m.Snapshot()
	g.ckptSim = g.sim.Snapshot()
	g.ckptMap = nil
	audit := g.m.AuditRegions()
	g.auditBase = audit.PerPU
}

// rollback rewinds the machine and the simulator to the checkpoint and
// discards the window's buffered reports. Configuration is not part of the
// snapshot — detect's scrub already restored it to golden.
func (g *Guard) rollback() {
	if err := g.m.Restore(g.ckpt, g.ckptMap); err != nil {
		// The checkpoint was taken from a compatible machine; a failure
		// here is a guard bug, not a recoverable device fault.
		panic(fmt.Sprintf("faults: rollback failed: %v", err))
	}
	g.sim.Restore(g.ckptSim)
	g.buffered = g.buffered[:0]
}

// quarantine retires the most-implicated PU: its whole cluster is vacated
// onto a spare cluster (states cannot leave their cluster), the machine is
// rebuilt for the new placement, and the checkpoint replays onto it.
func (g *Guard) quarantine() error {
	worst, worstN := -1, int64(0)
	for pu, n := range g.failCount {
		if n > worstN || (n == worstN && (worst < 0 || pu < worst)) {
			worst, worstN = pu, n
		}
	}
	if worst < 0 {
		return fmt.Errorf("faults: retries exhausted but no PU implicated")
	}
	if g.sparesUsed+mapping.PUsPerCluster > g.pol.SparePUs {
		return fmt.Errorf("faults: spare PUs exhausted (%d used of %d budget, PU %d still failing)",
			g.sparesUsed, g.pol.SparePUs, worst)
	}
	newPlace, puMap, err := mapping.Quarantine(g.place, worst)
	if err != nil {
		return fmt.Errorf("faults: quarantine PU %d: %w", worst, err)
	}
	newM, err := core.Configure(g.a, newPlace, g.cfg)
	if err != nil {
		return fmt.Errorf("faults: reconfigure after quarantining PU %d: %w", worst, err)
	}
	if tel := g.m.Telemetry(); tel != nil {
		newM.AttachTelemetry(tel)
	}
	newM.AttachFaults(g.inj)
	if g.ckptMap == nil {
		g.ckptMap = puMap
	} else {
		for i, old := range g.ckptMap {
			g.ckptMap[i] = puMap[old]
		}
	}
	if err := newM.Restore(g.ckpt, g.ckptMap); err != nil {
		return fmt.Errorf("faults: replay checkpoint after quarantining PU %d: %w", worst, err)
	}
	g.sim.Restore(g.ckptSim)
	base := mapping.ClusterOf(worst) * mapping.PUsPerCluster
	for k := 0; k < mapping.PUsPerCluster; k++ {
		g.inj.Quarantine(base + k)
	}
	g.sparesUsed += mapping.PUsPerCluster
	g.stats.Quarantines++
	g.stats.QuarantinedPUs = append(g.stats.QuarantinedPUs, worst)
	if g.telQuarantined != nil {
		g.telQuarantined.Add(mapping.PUsPerCluster)
	}
	g.m = newM
	g.place = newPlace
	g.buffered = g.buffered[:0]
	clear(g.failCount)
	return nil
}

// sameIDSet reports whether a and b hold the same state IDs (order-
// insensitive; both may be reordered in place).
func sameIDSet(a, b []automata.StateID) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
