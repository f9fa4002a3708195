package sched

import (
	"runtime"
	"strconv"
	"sync"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/telemetry"
)

// DefaultMinShardCycles is the smallest owned range a shard is planned
// with: below it, warm-up replay dominates and sequential execution wins.
const DefaultMinShardCycles = 512

// RunConfig configures a parallel run.
type RunConfig struct {
	// Workers caps the number of shard goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// RecordEvents keeps the full report event list (required when the
	// caller needs matches, not just counts).
	RecordEvents bool
	// Collector, when non-nil, aggregates the machines' telemetry across
	// the workers. Each worker attaches it only after warm-up replay, so
	// the device_kernel_cycles, device_reports and device_report_cycles
	// counters sum to exactly the sequential totals.
	Collector *telemetry.Collector
	// OnReportCycle, when non-nil, receives the run's report-state stream
	// in cycle order — the sequential one exactly, for a reporting model
	// to consume: each shard records its owned cycles' stream, and the
	// merge replays them in shard order.
	OnReportCycle func(cycle int64, states []automata.StateID)
	// MinShardCycles overrides DefaultMinShardCycles when > 0.
	MinShardCycles int64
}

// RunResult aggregates a parallel run. Reports, ReportCycles,
// MaxReportsPerCycle, KernelCycles and Events are byte-identical to a
// sequential core.Machine.Run of the same input.
type RunResult struct {
	KernelCycles       int64
	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int
	Events             []funcsim.ReportEvent

	// Workers is the number of shards actually executed; WarmupCycles the
	// total replay overhead across them; OverlapCycles the per-shard
	// warm-up window (D+1 rounded to the alignment). Sharded is false when
	// the run fell back to sequential execution: an unbounded dependence
	// window (cyclic automaton), a single worker, or an input too small to
	// split profitably.
	Workers       int
	WarmupCycles  int64
	OverlapCycles int64
	Sharded       bool
}

// ParallelRun executes units on clones of proto (the machine configured
// from automaton a) across shard workers and merges the result
// deterministically: events are concatenated, and report-state streams
// replayed, in shard order, which is cycle order, so the merged streams
// equal the sequential ones exactly.
// proto itself is never stepped — any configured machine works,
// concurrent ParallelRun calls on the same proto included.
func ParallelRun(proto *core.Machine, a *automata.UnitAutomaton, units []funcsim.Unit, rc RunConfig) *RunResult {
	cfg := proto.Config()
	rate := cfg.Rate
	units = funcsim.PadUnits(units, rate)
	totalCycles := int64(len(units) / rate)
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minOwned := rc.MinShardCycles
	if minOwned <= 0 {
		minOwned = DefaultMinShardCycles
	}

	depth, bounded := DependenceCycles(a)
	align := Alignment(rate, a.SymbolUnits)
	overlap := Overlap(depth, align)

	// Wall-clock span instrumentation. All clocks live inside the
	// telemetry package (this package is vet-enforced deterministic and
	// cannot import time); with spans disabled every call below is a
	// zero-alloc nil no-op.
	sp := rc.Collector.Spans().Root("parallel_run")
	defer sp.End()

	var shards []Shard
	if bounded && workers > 1 {
		shards = PlanShards(totalCycles, workers, align, overlap, minOwned)
	}
	if len(shards) <= 1 {
		return runSequential(proto, units, rc, sp)
	}
	sp.SetAttr("cycles=" + strconv.FormatInt(totalCycles, 10) +
		" shards=" + strconv.Itoa(len(shards)) +
		" overlap=" + strconv.FormatInt(overlap, 10))

	res := runShards(proto, a, units, shards, rc, sp)
	res.OverlapCycles = overlap
	return res
}

// runSequential is the fallback path: one clone, the whole input. Its
// output is trivially identical to core.Machine.Run.
func runSequential(proto *core.Machine, units []funcsim.Unit, rc RunConfig, sp *telemetry.SpanCtx) *RunResult {
	seq := sp.Child("sequential")
	defer seq.End()
	m := proto.Clone()
	if rc.Collector != nil {
		m.AttachTelemetry(rc.Collector)
	}
	r := m.Run(units, core.RunOptions{RecordEvents: rc.RecordEvents, OnReportCycle: rc.OnReportCycle})
	return &RunResult{
		KernelCycles:       r.KernelCycles,
		Reports:            r.Reports,
		ReportCycles:       r.ReportCycles,
		MaxReportsPerCycle: r.MaxReportsPerCycle,
		Events:             r.Events,
		Workers:            1,
	}
}

type shardOut struct {
	events       []funcsim.ReportEvent
	reports      int64
	reportCycles int64
	maxPerCycle  int
	// trace is the owned cycles' report-state stream, recorded only when
	// the run has an OnReportCycle to replay it to.
	trace *report.Trace
}

// runShards executes each shard on its own goroutine and clone of proto
// and merges their outputs in shard order, which is cycle order. Every
// shard runs under a child span of sp.
func runShards(proto *core.Machine, a *automata.UnitAutomaton, units []funcsim.Unit, shards []Shard, rc RunConfig, sp *telemetry.SpanCtx) *RunResult {
	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			red := core.NewReducer(proto.Reports())
			ss := sp.Child("shard")
			ss.SetAttr("shard=" + strconv.Itoa(i) +
				" warmup=" + strconv.FormatInt(sh.WarmupCycles(), 10) +
				" owned=" + strconv.FormatInt(sh.OwnedCycles(), 10))
			outs[i] = runShard(proto.Clone(), &red, units, sh, rc, ss)
			ss.End()
		}()
	}
	wg.Wait()

	res := &RunResult{Workers: len(shards), Sharded: true}
	nev := 0
	for i := range outs {
		nev += len(outs[i].events)
	}
	if rc.RecordEvents {
		res.Events = make([]funcsim.ReportEvent, 0, nev)
	}
	for i := range outs {
		o := &outs[i]
		res.Events = append(res.Events, o.events...)
		res.KernelCycles += shards[i].OwnedCycles()
		res.WarmupCycles += shards[i].WarmupCycles()
		res.Reports += o.reports
		res.ReportCycles += o.reportCycles
		if o.maxPerCycle > res.MaxReportsPerCycle {
			res.MaxReportsPerCycle = o.maxPerCycle
		}
		if o.trace != nil {
			o.trace.Replay(rc.OnReportCycle)
		}
	}
	return res
}

// runShard replays the shard's warm-up prefix silently on m (a fresh
// clone, telemetry detached), then executes the owned range through the
// report reducer red, so the emitted events match the sequential stream
// exactly.
func runShard(m *core.Machine, red *core.Reducer, units []funcsim.Unit, sh Shard, rc RunConfig, sp *telemetry.SpanCtx) shardOut {
	rate := m.Config().Rate
	// With BaseCycle > 0, local cycle zero is mid-stream: anchored states
	// must stay quiet. When the warm-up clamps to the input start the
	// replay *is* the sequential prefix and start-of-data injection stays
	// live.
	m.SuppressStartOfData(sh.BaseCycle > 0)
	warm := sp.Child("warmup")
	var scratch []automata.StateID
	for c := sh.BaseCycle; c < sh.StartCycle; c++ {
		off := int(c) * rate
		scratch = m.Step(units[off:off+rate], scratch[:0])
	}
	warm.End()

	if rc.Collector != nil {
		// Post-warm-up attach: the shared counters see owned cycles only,
		// so worker sums equal sequential totals (see RunConfig.Collector).
		m.AttachTelemetry(rc.Collector)
	}
	red.Reset(m)

	var out shardOut
	if rc.OnReportCycle != nil {
		out.trace = new(report.Trace)
	}
	scan := sp.Child("scan")
	defer scan.End()
	tab := m.Reports()
	var kept []int32
	for c := sh.StartCycle; c < sh.EndCycle; c++ {
		off := int(c) * rate
		scratch = m.Step(units[off:off+rate], scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		if out.trace != nil {
			out.trace.OnReportCycle(c, scratch)
		}
		kept = red.Cycle(scratch, kept[:0])
		if rc.RecordEvents {
			out.events = tab.AppendEvents(out.events, c, kept)
		}
	}
	out.reports, out.reportCycles, out.maxPerCycle = red.Reports, red.ReportCycles, red.MaxReportsPerCycle
	return out
}
