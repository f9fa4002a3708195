package sunder

import (
	"errors"
	"slices"

	"sunder/internal/prefilter"
	"sunder/internal/sched"
)

// ErrDeferredBufferFull is returned by Stream.Write on a prefiltered stream
// over an automaton with an unbounded dependence window when the deferred-
// start buffer reaches its cap (maxDeferredUnits) without a literal hit.
// Such a stream cannot bound the warm-up replay a future hit would need, so
// instead of silently buffering without limit it stops accepting input; the
// error is sticky (further writes return it) and Close remains valid and
// idempotent — everything written so far was proven match-free, so the
// returned statistics count those cycles as skipped.
var ErrDeferredBufferFull = errors.New(
	"sunder: prefilter deferred-start buffer full (unbounded dependence window, no literal hit)")

// streamFilter is the incremental literal prefilter behind Stream when the
// engine compiled with Options.Prefilter: it scans arriving bytes for the
// required literals and has the stream's runner execute only the candidate
// windows (each warmed up from byte history, windowRunner.resetAt), keeping
// matches and Reports/ReportCycles byte-identical to an unfiltered stream.
// Execution holds back align+1 cycles behind the completion frontier, which
// makes every skip final: a window's start is anchored at the end byte of
// its literal, so a later chunk can only open windows past the frontier.
// With an unbounded dependence window it defers instead: bytes buffer until
// the first hit, then the runner replays them all (provably silent) and the
// stream goes live. DESIGN.md §4.14 has the argument.
type streamFilter struct {
	// windowLoop.fed doubles as the absolute byte offset the literal
	// scanner has covered; hist is trimmed to the dependence window behind
	// proc (bounded) or kept until live (deferred).
	windowLoop
	e *Engine
	// carry holds the last maxLit-1 raw bytes so literals straddling a
	// Write boundary are still found.
	carry []byte
	// live is the deferred-start switch for unbounded automata: the runner
	// then takes every byte as it arrives.
	live bool
	hits int64
}

// maxDeferredUnits caps the deferred-start buffer of unbounded automata:
// reaching it without a hit surfaces ErrDeferredBufferFull from Write,
// bounding memory.
const maxDeferredUnits = 4 << 20

// reset starts the (freshly built) filter with its runner at cycle zero.
func (f *streamFilter) reset(onMatch func(Match), size int64) { f.rn.reset(onMatch, size) }

// feed scans the chunk for literals and advances execution up to the
// decision frontier. The only error it can return is ErrDeferredBufferFull
// (unbounded automata whose deferred-start buffer hits the cap).
func (f *streamFilter) feed(p []byte) error {
	f.scanChunk(p)
	if f.live {
		return f.rn.feed(p)
	}
	f.hist = append(f.hist, p...)
	if !f.p.bounded {
		return f.advanceDeferred()
	}
	// Windows open and close on aligned cycles, which fall between bytes.
	limit := f.fed*int64(f.p.su)/int64(f.p.rate) - f.p.align - 1
	if limit -= limit % f.p.align; limit > 0 {
		f.advance(limit)
	}
	f.trim()
	return nil
}

// scanChunk runs the literal scanner over carry+chunk, keeping only
// occurrences that end inside the new bytes (the rest were counted by the
// previous call), and converts them to candidate cycle spans.
func (f *streamFilter) scanChunk(p []byte) {
	data := p
	base := f.fed
	if len(f.carry) > 0 {
		data = append(f.carry, p...)
		base -= int64(len(f.carry))
	}
	f.p.scanner.Scan(data, func(q, e int) {
		if base+int64(e) <= f.fed {
			return
		}
		f.hits++
		f.spans = append(f.spans, f.p.hitSpan(int(base)+q, int(base)+e))
	})
	slices.SortFunc(f.spans, bySpanStart)
	f.fed += int64(len(p))
	if keep := f.p.maxLit - 1; keep > 0 {
		if len(data) < keep {
			keep = len(data)
		}
		f.carry = append(f.carry[:0], data[len(data)-keep:]...)
	}
}

// trim drops history the warm-up of any future window can no longer reach:
// windows open at or after proc, so bytes older than overlap+2·align
// cycles behind it are dead. The buffer is compacted only when the dead
// prefix dominates, amortizing the copy.
func (f *streamFilter) trim() {
	keepFrom := f.p.cycleByte(max(f.proc-f.p.overlap-2*f.p.align-2, 0))
	dead := keepFrom - f.histBase
	if dead <= 0 || dead*2 < int64(len(f.hist)) {
		return
	}
	f.hist = f.hist[:copy(f.hist, f.hist[dead:])]
	f.histBase = keepFrom
}

// advanceDeferred is the unbounded-dependence path: buffer until a hit,
// then replay everything and stay live. Reaching the buffer cap without a
// hit is ErrDeferredBufferFull: going live at that point would silently
// degrade the stream into unfiltered execution over an arbitrarily large
// replay, so the condition surfaces to the caller instead.
func (f *streamFilter) advanceDeferred() error {
	if f.hits == 0 {
		if int64(len(f.hist))*int64(f.p.su) > maxDeferredUnits {
			return ErrDeferredBufferFull
		}
		return nil
	}
	// Replay with emission: the pre-hit prefix contains no literal, hence
	// no match, hence no report — emission is provably silent there.
	f.live = true
	f.windows++
	err := f.rn.feed(f.hist)
	f.hist = nil
	return err
}

// finish folds in the pad-tail hazard, executes the remaining undecided
// cycles, and seals the runner's run with the filtered stream statistics.
func (f *streamFilter) finish() runOutput {
	su, rate := int64(f.p.su), int64(f.p.rate)
	totalCycles := (f.fed*su + rate - 1) / rate
	if padUnits := int(totalCycles*rate - f.fed*su); padUnits > 0 && f.p.maxLit > 0 {
		padBytes := (padUnits + f.p.su - 1) / f.p.su
		if prefilter.TailHitFold(f.carry, f.p.lits, padBytes, f.p.fold) {
			// A literal can complete inside the pad: phantom pad reports
			// fire in the final cycle of an unfiltered run and must be
			// counted here identically.
			f.spans = append(f.spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
			f.hits++
		}
	}
	switch {
	case f.p.bounded:
		f.advance(totalCycles)
	case f.live:
		// The runner has taken every byte as it arrived.
	case f.hits > 0:
		f.advanceDeferred()
	default:
		// No literal ever hit (including a possibly over-cap wedged
		// stream): every buffered cycle is provably match-free.
		f.skip(totalCycles)
	}
	out := f.rn.finish()
	out.stats.PrefilterWindows, out.stats.SkippedCycles = f.windows, f.skipped
	notePrefilter(f.e.telemetryCollector(), f.hits, f.windows, out.stats.KernelCycles, f.skipped)
	return out
}
