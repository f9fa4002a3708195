package sunder

import (
	"errors"
	"fmt"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/faults"
	"sunder/internal/funcsim"
	"sunder/internal/meta"
)

// This file is the one execution pipeline behind Scan, ScanParallel,
// ScanBatch and Stream (DESIGN.md §4.17): resolve picks the leg, a runner
// executes it span by span, the reduction turns its report cycles into
// matches and counts, and result turns a finished run into a ScanResult.

// leg is the resolved execution plan of one call.
type leg int

const (
	// legGuard runs sequentially on the shared machine under the fault-
	// recovery guard.
	legGuard leg = iota
	// legPrefilter runs the literal prefilter: candidate windows on machine
	// clones for whole inputs (scanPrefiltered), the incremental
	// streamFilter for streams.
	legPrefilter
	// legDFA steps the lazy DFA.
	legDFA
	// legNFA steps one bitvec machine sequentially.
	legNFA
	// legSharded shards a whole input across machine clones (scanSharded).
	legSharded
)

// sharding is how an entry point treats the NFA substrate.
type sharding int

const (
	// shardNever: ScanBatch and Stream — inputs, not shards, are the unit of
	// parallelism, so the "parallel" backend runs like "nfa".
	shardNever sharding = iota
	// shardIfParallel: Scan — only the "parallel" backend fans out.
	shardIfParallel
	// shardAlways: ScanParallel — the NFA substrate always shards.
	shardAlways
)

// resolve decides the leg of one call. It is the only place an entry point
// asks "guard, prefilter or backend?": an armed fault policy owns the scan
// (the recovery protocol is machine-level and sequential), an engaged
// literal prefilter comes next (its windows replay on NFA clones), and the
// backend — the compiled one or a validated per-call override — selects the
// substrate for everything else. The override is validated first, so a bad
// one is an error whatever leg would have run.
func (e *Engine) resolve(override string, sh sharding) (leg, error) {
	backend, err := e.effectiveBackend(override)
	if err != nil {
		return 0, err
	}
	switch {
	case e.injector != nil:
		return legGuard, nil
	case e.pre.enabled():
		return legPrefilter, nil
	case backend == meta.BackendDFA:
		return legDFA, nil
	case sh == shardAlways || sh == shardIfParallel && backend == meta.BackendParallel:
		return legSharded, nil
	}
	return legNFA, nil
}

// runner is the execution contract every substrate implements: rewind,
// consume input span by span, seal. A runner owns its partial-cycle
// buffering and final-cycle padding, steps whole cycles in its own loop,
// and hands only report cycles to its reduction — so a whole-input scan is
// reset; feed(input); finish and a stream is reset; feed per Write; finish.
type runner interface {
	// reset rewinds to cycle zero. Matches go to onMatch as they are
	// reduced; with nil they are collected into finish's output.
	reset(onMatch func(Match)) error
	// feed consumes the next span of input. An error is sticky.
	feed(p []byte) error
	// finish pads and executes the final partial cycle and returns the run.
	finish() (runOutput, error)
}

// runOutput is a finished run, whichever leg produced it.
type runOutput struct {
	stats   Stats
	matches []Match
	// perPU is nil when the leg models no report region (lazy DFA, a
	// prefilter full skip): the result then carries zeroed rows.
	perPU  []core.PUStats
	faults *FaultReport
}

// result turns a finished run into the public ScanResult — the one place
// that happens.
func (e *Engine) result(out runOutput) *ScanResult {
	return &ScanResult{
		Matches: out.matches,
		Stats:   out.stats,
		PerPU:   toPUStats(out.perPU, e.proto.NumPUs()),
		Faults:  out.faults,
	}
}

// reduction is the façade half of the report reducer, embedded in every
// runner: core.Reducer owns the per-cycle (offset, origin) de-duplication
// and the Reports/ReportCycles and device report counters; the reduction
// adds the pad-tail phantom filter and builds the matches.
type reduction struct {
	red core.Reducer
	evs []funcsim.ReportEvent
	// su is units per input byte; fed counts the input bytes consumed since
	// begin, which bounds real reports (see deliver).
	su, fed int64
	matches []Match
	onMatch func(Match)
}

func newReduction(a *automata.UnitAutomaton) reduction {
	return reduction{red: core.NewReducer(a, true), su: int64(a.SymbolUnits)}
}

// begin starts a run whose cycles are stepped by m (nil: not by a device;
// see core.Reducer.Reset).
func (r *reduction) begin(m *core.Machine, onMatch func(Match)) {
	r.red.Reset(m)
	r.fed, r.matches, r.onMatch = 0, nil, onMatch
}

// cycle reduces the report cycle c and delivers its matches.
func (r *reduction) cycle(c int64, ids []automata.StateID) {
	r.evs = r.red.Cycle(c, ids, r.evs[:0])
	r.deliver(r.evs)
}

// deliver turns reports into matches — the one place a Match is built. A
// report ending past the bytes fed so far sits in the pad tail of the final
// vector (a Pad unit satisfies any-symbol positions like `.`): the device
// writes the entry, so it counted in Reports, but it is not a match.
func (r *reduction) deliver(evs []funcsim.ReportEvent) {
	limit := r.fed * r.su
	for _, ev := range evs {
		if ev.Unit >= limit {
			continue
		}
		m := Match{Position: ev.Unit / r.su, Code: ev.Code}
		if r.onMatch != nil {
			r.onMatch(m)
		} else {
			r.matches = append(r.matches, m)
		}
	}
}

// end seals a run: the reducer's report counts complete st, and the
// collected matches move out — a persistent runner must not keep a
// result's memory alive on the engine.
func (r *reduction) end(st Stats, perPU []core.PUStats) runOutput {
	st.Reports, st.ReportCycles = r.red.Reports, r.red.ReportCycles
	out := runOutput{stats: st, matches: r.matches, perPU: perPU}
	r.matches = nil
	return out
}

// machineStats reads a device run's cycle accounting from the machine's
// report-region model.
func machineStats(m *core.Machine) Stats {
	return Stats{
		KernelCycles: m.KernelCycles(),
		StallCycles:  m.StallCycles(),
		Flushes:      m.Flushes(),
	}
}

// runner returns the runner of leg l. The sequential entry points (Scan,
// NewStream) share the engine's persistent machine and DFA runners — the
// DFA state cache stays hot across scans; private hands out one that touches
// no engine state, for the parallel entry points' workers, who release it
// when their call ends. The guard always drives the shared machine. The
// prefilter and sharded legs have no runner: whole inputs go through the
// scheduler (scanOn), and a stream's prefilter leg is its streamFilter
// (NewStream).
func (e *Engine) runner(l leg, private bool) runner {
	switch l {
	case legPrefilter, legSharded:
		return nil
	case legGuard:
		return &guardRunner{reduction: newReduction(e.nibble), e: e}
	case legDFA:
		if private {
			if d, ok := e.dfaPool.Get().(*dfaRunner); ok {
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
		m := e.proto.Clone()
		m.AttachTelemetry(e.telemetryCollector())
		return &machineRunner{reduction: newReduction(e.nibble), m: m}
	}
	if e.nfaRun == nil {
		e.nfaRun = &machineRunner{reduction: newReduction(e.nibble)}
	}
	// Re-read every time: a guarded scan may have replaced the machine.
	e.nfaRun.m = e.machine
	return e.nfaRun
}

// release ends a private runner's call. A DFA runner goes back to the
// artifact's pool with its state cache: reset restores everything else, so
// the next call, on this engine or a clone, starts warm.
func (e *Engine) release(rn runner) {
	if d, ok := rn.(*dfaRunner); ok {
		e.dfaPool.Put(d)
	}
}

// ErrCycleRangeExceeded is returned by Scan, ScanParallel, ScanBatch and
// Stream.Write for input longer than the compiled device can account for:
// a report entry stamps its cycle through a chain of Options.MetadataBits-
// wide stride markers that has to fit the report region, which bounds the
// cycles a device may be stepped (core.Config.MaxCycles — about 10^15 at
// the default 20 bits, a few thousand at 1). The bound is a property of
// the compiled configuration, so it holds on every leg alike, whether or
// not the leg models the region. On a stream the error is sticky; Close
// still finishes what was accepted.
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

// scanOn runs one whole input on leg l: reset; feed; finish on rn, its
// runner, or through the scheduler for the two legs that have none.
func (e *Engine) scanOn(l leg, rn runner, input []byte, workers int) (*ScanResult, error) {
	if err := e.checkCycleRange(int64(len(input))); err != nil {
		return nil, err
	}
	switch l {
	case legPrefilter:
		return e.scanPrefiltered(input, workers), nil
	case legSharded:
		return e.scanSharded(input, workers), nil
	}
	if err := rn.reset(nil); err != nil {
		return nil, err
	}
	if err := rn.feed(input); err != nil {
		return nil, err
	}
	out, err := rn.finish()
	if err != nil {
		return nil, err
	}
	return e.result(out), nil
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

func (r *machineRunner) reset(onMatch func(Match)) error {
	r.m.Reset()
	r.units = r.units[:0]
	r.begin(r.m, onMatch)
	return nil
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
		c := r.m.KernelCycles()
		r.ids = r.m.Step(r.units[off:off+rate], r.ids[:0])
		if len(r.ids) > 0 {
			r.cycle(c, r.ids)
		}
	}
	r.units = append(r.units[:0], r.units[off:]...)
}

func (r *machineRunner) finish() (runOutput, error) {
	if len(r.units) > 0 {
		r.units = funcsim.PadUnits(r.units, r.m.Config().Rate)
		r.step()
	}
	return r.end(machineStats(r.m), r.m.PerPU()), nil
}

// dfaRunner steps the lazy DFA over raw bytes. KernelCycles equals the
// device's padded cycle count; StallCycles, Flushes and the per-PU
// breakdown are artifacts of the simulated report region, which the DFA
// does not model, and read zero — the same documented divergence as
// ScanParallel's clone-local stall accounting. Device telemetry counters
// stay untouched for the same reason.
type dfaRunner struct {
	reduction
	r *dfa.Runner
	// pend holds the bytes of an incomplete cycle between feeds.
	pend []byte
}

func (e *Engine) newDFARunner() *dfaRunner {
	return &dfaRunner{reduction: newReduction(e.nibble), r: dfa.NewRunner(e.dfaPlan, dfa.DefaultConfig())}
}

func (d *dfaRunner) reset(onMatch func(Match)) error {
	d.r.Reset()
	d.pend = d.pend[:0]
	d.begin(nil, onMatch)
	return nil
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
	// The hot loop: a cycle without reports costs one Step and nothing else.
	r, c := d.r, d.r.Cycle()
	for ; len(p) >= sb; p = p[sb:] {
		if ids := r.Step(p[:sb], 0); len(ids) > 0 {
			d.cycle(c, ids)
		}
		c++
	}
	d.pend = append(d.pend, p...)
	return nil
}

func (d *dfaRunner) step(data []byte, pad int) {
	c := d.r.Cycle()
	if ids := d.r.Step(data, pad); len(ids) > 0 {
		d.cycle(c, ids)
	}
}

func (d *dfaRunner) finish() (runOutput, error) {
	if len(d.pend) > 0 {
		d.step(d.pend, d.r.Plan().StepBytes()-len(d.pend))
		d.pend = d.pend[:0]
	}
	return d.end(Stats{KernelCycles: d.r.Cycle()}, nil), nil
}

// guardRunner executes under the fault-recovery guard: input runs in
// checkpointed windows on the engine's shared machine, and a window's
// report cycles reach the reduction only when it commits, so a recovered
// run is identical to a fault-free one and a rolled-back attempt is never
// counted or delivered.
type guardRunner struct {
	reduction
	e     *Engine
	g     *faults.Guard
	units []funcsim.Unit
}

func (r *guardRunner) reset(onMatch func(Match)) error {
	g, err := r.e.newGuard()
	if err != nil {
		return err
	}
	r.g = g
	g.OnReportCycle(r.cycle)
	r.begin(g.Machine(), onMatch)
	return nil
}

func (r *guardRunner) feed(p []byte) error {
	r.fed += int64(len(p))
	r.units = funcsim.AppendNibbles(r.units[:0], p)
	err := r.g.Feed(r.units)
	// A quarantine inside the feed replaces the machine.
	r.e.adoptGuard(r.g)
	return err
}

func (r *guardRunner) finish() (runOutput, error) {
	err := r.g.Finish()
	r.e.adoptGuard(r.g)
	m := r.g.Machine()
	out := r.end(machineStats(m), m.PerPU())
	out.faults = faultReport(r.g.Stats())
	return out, err
}
