package sched

// Shard is one worker's slice of the input, in device cycles. The worker
// executes cycles [BaseCycle, EndCycle) on its machine clone but emits
// reports only for the owned range [StartCycle, EndCycle); the prefix
// [BaseCycle, StartCycle) is warm-up replay that reconstructs the
// sequential active-state vector at the shard boundary (see
// DependenceCycles for why the overlap suffices).
type Shard struct {
	BaseCycle  int64
	StartCycle int64
	EndCycle   int64
}

// WarmupCycles returns the shard's replay prefix length.
func (s Shard) WarmupCycles() int64 { return s.StartCycle - s.BaseCycle }

// OwnedCycles returns the shard's owned range length.
func (s Shard) OwnedCycles() int64 { return s.EndCycle - s.StartCycle }

// CycleSpan is a half-open range of device cycles [Start, End) that a
// prefilter marked as a candidate: some literal occurrence makes a report
// inside it possible. Spans may overlap and arrive unsorted.
type CycleSpan struct {
	Start int64
	End   int64
}

// Overlap returns the warm-up replay length for a dependence window of
// depth cycles: D+1 rounded up to the alignment, exactly what ParallelRun
// plans between shards and a prefilter window replays.
func Overlap(depth int, alignCycles int64) int64 {
	return RoundUp(int64(depth)+1, alignCycles)
}

// PlanShards partitions totalCycles of input into up to workers contiguous
// owned ranges. Every boundary (and every warm-up base) lands on a multiple
// of alignCycles, so a worker's local injection cadence — start-all
// injection fires when cycle*rate is a symbol boundary — agrees with the
// absolute cadence of a sequential run. overlapCycles of warm-up replay
// precede each shard but the first (rounded up to the alignment; clamped at
// the start of input, where the replay is simply the sequential prefix).
// minOwnedCycles caps the shard count so tiny inputs are not diced into
// slices smaller than their warm-up, and the owned ranges always partition
// [0, totalCycles) exactly: disjoint, ordered, gapless.
func PlanShards(totalCycles int64, workers int, alignCycles, overlapCycles, minOwnedCycles int64) []Shard {
	if totalCycles <= 0 || workers < 1 {
		return nil
	}
	if alignCycles < 1 {
		alignCycles = 1
	}
	if overlapCycles < 0 {
		overlapCycles = 0
	}
	overlapCycles = RoundUp(overlapCycles, alignCycles)
	if minOwnedCycles < alignCycles {
		minOwnedCycles = alignCycles
	}
	n := int64(workers)
	if m := totalCycles / minOwnedCycles; n > m {
		n = m
	}
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, 0, n)
	prev := int64(0)
	for i := int64(0); i < n && prev < totalCycles; i++ {
		end := totalCycles * (i + 1) / n
		if i < n-1 {
			end -= end % alignCycles
		}
		if end <= prev {
			continue
		}
		base := prev - overlapCycles
		if base < 0 {
			base = 0
		}
		shards = append(shards, Shard{BaseCycle: base, StartCycle: prev, EndCycle: end})
		prev = end
	}
	return shards
}

// Alignment returns the shard-boundary alignment for a machine processing
// rate units/cycle over an automaton whose input symbols span symbolUnits
// units: boundaries — of shards, and of the prefilter's windows — must land
// where whole symbols land on whole cycles, i.e. on multiples of
// lcm(rate, symbolUnits)/rate cycles, so that a machine's local injection
// cadence agrees with the absolute one.
func Alignment(rate, symbolUnits int) int64 {
	if rate < 1 || symbolUnits < 1 {
		return 1
	}
	return int64(symbolUnits / gcd(rate, symbolUnits))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RoundUp rounds v up to the next multiple of m (v itself when m <= 1), the
// rounding every plan in this package aligns with.
func RoundUp(v, m int64) int64 {
	if m <= 1 {
		return v
	}
	return (v + m - 1) / m * m
}
