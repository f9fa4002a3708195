package sunder

import (
	"slices"

	"sunder/internal/prefilter"
	"sunder/internal/sched"
)

// streamFilter is the incremental literal prefilter behind Stream when the
// engine compiled with Options.Prefilter over an automaton with a bounded
// dependence window (an unbounded one streams unfiltered): it scans
// arriving bytes for the required literals through the runner's probe,
// whose Hits it adapts, and has the stream's runner execute only the
// candidate windows (each warmed up from byte history, runner.resetAt),
// keeping matches and Reports/ReportCycles byte-identical to an unfiltered
// stream. Execution holds back align+1 cycles behind the completion
// frontier, which makes every skip final: a window's start is anchored at
// the end byte of its literal, so a later chunk can only open windows past
// the frontier. Once the probe stops looking, as a whole-input scan does
// at a checkpoint, the stream opens one window at the frontier and goes
// live. DESIGN.md §4.14 has the argument.
type streamFilter struct {
	// windowLoop.fed doubles as the absolute byte offset the literal
	// scanner has covered; hist is trimmed to the dependence window behind
	// proc, and holds at least the last maxLit-1 bytes, so that a literal
	// straddling a Write boundary is still found.
	windowLoop
	e *Engine
	// base is the absolute offset of the bytes being scanned.
	base int64
	// live is set once the probe stopped: the runner then takes every byte
	// as it arrives.
	live bool
}

// newStreamFilter returns the prefilter of a stream on rn, or nil when the
// stream runs unfiltered: e has no prefilter, or its dependence window is
// unbounded, so that any hit would force a run from byte 0.
func newStreamFilter(e *Engine, rn *runner) *streamFilter {
	if !e.pre.enabled() || !e.geo.bounded {
		return nil
	}
	rn.probe.start(e.compiledArtifact)
	return &streamFilter{windowLoop: windowLoop{rn: rn, g: &e.geo}, e: e}
}

// feed scans the chunk for literals and advances execution up to the
// decision frontier, or, once live, feeds the runner.
func (f *streamFilter) feed(p []byte) {
	if f.live {
		f.rn.feed(p)
		return
	}
	f.hist = append(f.hist, p...)
	f.base = max(f.fed-int64(f.e.pre.maxLit-1), f.histBase)
	data := f.hist[f.base-f.histBase:]
	// The probe appends its spans to the window loop's pending ones, moved
	// to the front of its scratch: the loop drops passed spans from the
	// front, and appending behind them would regrow the slice at each hit.
	probe := &f.rn.probe
	probe.spans = append(probe.spans[:0], f.spans...)
	f.e.pre.scanner.ScanUntil(data, f)
	f.spans = probe.spans
	f.fed += int64(len(p))
	if probe.stoppedAt > 0 {
		f.goLive()
		return
	}
	slices.SortFunc(f.spans, bySpanStart)
	// Windows open and close on aligned cycles, which fall between bytes.
	limit := f.fed*f.g.su/f.g.rate - f.g.align - 1
	if limit -= limit % f.g.align; limit > 0 {
		f.advance(limit)
	}
	f.trim()
}

// Hit is the probe's Hits over the chunk and the maxLit-1 bytes before it:
// an occurrence that ends before the chunk was the previous chunk's, and
// the rest go to the probe at absolute byte offsets.
func (f *streamFilter) Hit(q, end int) bool {
	if f.base+int64(end) <= f.fed {
		return true
	}
	return f.rn.probe.Hit(int(f.base)+q, int(f.base)+end)
}

// goLive opens one window at proc over the held-back bytes and feeds them;
// from then on the runner takes every byte as it arrives. No cycle before
// proc needs one: an occurrence the probe did not scan ends in the last
// chunk, so its window would start past the frontier.
func (f *streamFilter) goLive() {
	end := f.g.cycles(f.fed)
	f.spans = append(f.spans[:0], sched.CycleSpan{Start: f.proc, End: end})
	f.advance(end)
	f.live, f.hist = true, nil
}

// trim drops history the warm-up of any future window can no longer reach
// and the next chunk's literal scan does not read: windows open at or after
// proc, so bytes older than overlap+2·align cycles behind it are dead. The
// buffer is compacted only when the dead prefix dominates, amortizing the
// copy.
func (f *streamFilter) trim() {
	keepFrom := min(f.g.cycleByte(max(f.proc-f.g.overlap-2*f.g.align-2, 0)), f.fed-int64(f.e.pre.maxLit-1))
	dead := keepFrom - f.histBase
	if dead <= 0 || dead*2 < int64(len(f.hist)) {
		return
	}
	f.hist = f.hist[:copy(f.hist, f.hist[dead:])]
	f.histBase = keepFrom
}

// finish folds in the pad-tail hazard, executes the remaining undecided
// cycles, and seals the runner's run with the filtered stream statistics.
func (f *streamFilter) finish() runOutput {
	probe := &f.rn.probe
	if !f.live {
		su, totalCycles := f.g.su, f.g.cycles(f.fed)
		if padUnits := totalCycles*f.g.rate - f.fed*su; padUnits > 0 &&
			prefilter.TailHitFold(f.hist, f.e.pre.lits, int((padUnits+su-1)/su), f.e.pre.fold) {
			// A literal can complete inside the pad: phantom pad reports
			// fire in the final cycle of an unfiltered run and must be
			// counted here identically.
			f.spans = append(f.spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
		}
		f.advance(totalCycles)
	}
	probe.keep(probe.spans)
	out := f.rn.finish()
	out.stats.PrefilterWindows, out.stats.SkippedCycles = f.windows, f.skipped
	out.stats.PrefilterStoppedAt = int64(probe.stoppedAt)
	notePrefilter(f.e.tel.Load(), probe.hits, f.windows, out.stats.KernelCycles, f.skipped, probe.stoppedAt > 0)
	return out
}
