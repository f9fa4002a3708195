package sched

import (
	"runtime"
	"sort"
	"strconv"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
)

// CycleSpan is a half-open range of device cycles [Start, End) that a
// prefilter marked as a candidate: some literal occurrence makes a report
// inside it possible. Spans may overlap and arrive unsorted.
type CycleSpan struct {
	Start int64
	End   int64
}

// Alignment exposes the shard-boundary alignment (see alignmentCycles) so
// window planners outside this package can place warm-up bases where a
// machine clone's local injection cadence agrees with the absolute one.
func Alignment(rate, symbolUnits int) int64 { return alignmentCycles(rate, symbolUnits) }

// Overlap returns the warm-up replay length for a dependence window of
// depth cycles: D+1 rounded up to the alignment, exactly what ParallelRun
// plans between shards.
func Overlap(depth int, alignCycles int64) int64 {
	return roundUpTo(int64(depth)+1, alignCycles)
}

// RoundUp rounds v up to the next multiple of m (v itself when m <= 1), the
// rounding every plan in this package aligns with.
func RoundUp(v, m int64) int64 { return roundUpTo(v, m) }

// PlanWindows turns candidate cycle spans into executable shards: spans are
// clamped to [0, totalCycles), aligned outward (Start down, End up), merged
// when the gap between two windows is within the warm-up overlap (replaying
// the gap would cost as much as skipping it saves), and prefixed with an
// aligned warm-up base of overlapCycles. The resulting owned ranges are
// disjoint and ordered, so concatenating their report streams in shard
// order reproduces the sequential cycle order.
func PlanWindows(spans []CycleSpan, totalCycles, alignCycles, overlapCycles int64) []Shard {
	if totalCycles <= 0 || len(spans) == 0 {
		return nil
	}
	if alignCycles < 1 {
		alignCycles = 1
	}
	if overlapCycles < 0 {
		overlapCycles = 0
	}
	overlapCycles = roundUpTo(overlapCycles, alignCycles)

	norm := make([]CycleSpan, 0, len(spans))
	for _, sp := range spans {
		if sp.Start < 0 {
			sp.Start = 0
		}
		if sp.End > totalCycles {
			sp.End = totalCycles
		}
		if sp.End <= sp.Start {
			continue
		}
		sp.Start -= sp.Start % alignCycles
		sp.End = roundUpTo(sp.End, alignCycles)
		if sp.End > totalCycles {
			sp.End = totalCycles
		}
		norm = append(norm, sp)
	}
	if len(norm) == 0 {
		return nil
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].Start != norm[j].Start {
			return norm[i].Start < norm[j].Start
		}
		return norm[i].End < norm[j].End
	})
	merged := norm[:1]
	for _, sp := range norm[1:] {
		last := &merged[len(merged)-1]
		if sp.Start <= last.End+overlapCycles {
			if sp.End > last.End {
				last.End = sp.End
			}
			continue
		}
		merged = append(merged, sp)
	}

	shards := make([]Shard, len(merged))
	for i, sp := range merged {
		base := sp.Start - overlapCycles
		if base < 0 {
			base = 0
		}
		base -= base % alignCycles
		shards[i] = Shard{BaseCycle: base, StartCycle: sp.Start, EndCycle: sp.End}
	}
	return shards
}

// WindowedRun executes only the given windows (produced by PlanWindows) on
// clones of proto, each preceded by its warm-up replay, and merges the
// per-window report streams in cycle order. For every cycle inside an owned
// range the machine state equals the sequential machine's (the warm-up
// covers the dependence window), so the emitted events, Reports and
// ReportCycles are exactly the sequential run's contribution from those
// cycles; with windows covering every possible report cycle the output is
// byte-identical to a full run.
//
// KernelCycles sums the owned (productive) cycles only — the whole point of
// windowed execution is that skipped cycles cost nothing. StallCycles,
// Flushes and PerPU are summed across the window executions as in
// ParallelRun. Workers caps the goroutines; windows are striped across
// them and each worker reuses one machine clone with a Reset between
// windows.
func WindowedRun(proto *core.Machine, a *automata.UnitAutomaton, units []funcsim.Unit, shards []Shard, rc RunConfig) *RunResult {
	cfg := proto.Config()
	units = funcsim.PadUnits(units, cfg.Rate)
	if len(shards) == 0 {
		return &RunResult{Sharded: true}
	}
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	sp := rc.Collector.Spans().Root("windowed_run")
	sp.SetAttr("windows=" + strconv.Itoa(len(shards)) + " workers=" + strconv.Itoa(workers))
	defer sp.End()

	return runShards(proto, a, units, shards, workers, rc, sp, "window")
}
