package sunder

import (
	"errors"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
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
// engine compiled with Options.Prefilter. It scans arriving bytes for the
// required literals, executes the device only inside candidate windows
// (warm-up replayed from buffered history), and skips everything else,
// while keeping the match stream and the Reports/ReportCycles accounting
// byte-identical to an unfiltered stream.
//
// Decision finality: a window's start is anchored at the *end* byte of the
// literal occurrence, so an occurrence not yet seen can only create
// windows at or beyond the current completion frontier. Holding execution
// back align+1 cycles behind the frontier therefore makes every skip
// decision final — a later chunk can never un-skip a cycle, including a
// candidate window straddling the chunk boundary (the window simply opens
// once the straddling literal's end arrives, and its warm-up replays from
// the history buffer across the boundary).
//
// With an unbounded dependence window (cyclic automaton) warm-up cannot be
// bounded, so the filter defers instead: units are buffered unexecuted
// until the first literal hit, at which point the machine replays the
// whole buffer (provably silent before the hit) and the stream goes live,
// executing everything from then on. A hit-free stream skips every cycle.
type streamFilter struct {
	// reduction.fed doubles as the absolute byte offset the literal scanner
	// has covered.
	reduction
	e   *Engine
	p   *prefilterPlan
	ids []automata.StateID

	// carry holds the last maxLit-1 raw bytes so literals straddling a
	// Write boundary are still found.
	carry []byte

	// hist buffers input units for warm-up replay (bounded mode trims it
	// to the dependence window behind the decision frontier; deferred mode
	// keeps everything until live). histBase is the absolute unit index of
	// hist[0].
	hist     []funcsim.Unit
	histBase int64

	// spans are pending candidate windows, Start-ordered; proc is the next
	// cycle to decide; hot reports that the machine state equals the
	// sequential state entering cycle proc.
	spans []sched.CycleSpan
	proc  int64
	hot   bool

	// live is the deferred-start switch for unbounded automata.
	live bool

	// Accounting. kernel counts executed owned cycles, skipped the cycles
	// proven match-free; stall/flushes accumulate machine counters
	// harvested before each window reset.
	kernel  int64
	skipped int64
	stall   int64
	flushes int64
	hits    int64
	windows int64
}

// maxDeferredUnits caps the deferred-start buffer of unbounded automata:
// reaching it without a hit surfaces ErrDeferredBufferFull from Write,
// bounding memory.
const maxDeferredUnits = 4 << 20

// reset starts the (freshly built) filter on the engine's shared machine.
func (f *streamFilter) reset(onMatch func(Match)) error {
	m := f.e.machine
	m.Reset()
	// A previous filtered stream's window warm-up may have left
	// start-of-data injection suppressed on the shared machine; a fresh
	// stream starts at true input start.
	m.SuppressStartOfData(false)
	f.hot = true
	f.begin(m, onMatch)
	return nil
}

// feed scans the chunk for literals and advances execution up to the
// decision frontier. The only error it can return is ErrDeferredBufferFull
// (unbounded automata whose deferred-start buffer hits the cap).
func (f *streamFilter) feed(p []byte) error {
	f.scanChunk(p)
	f.hist = funcsim.AppendNibbles(f.hist, p)
	if !f.p.bounded {
		return f.advanceDeferred()
	}
	complete := (f.histBase + int64(len(f.hist))) / int64(f.p.rate)
	limit := complete - f.p.align - 1
	if limit > 0 {
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
	f.fed += int64(len(p))
	if keep := f.p.maxLit - 1; keep > 0 {
		if len(data) < keep {
			keep = len(data)
		}
		f.carry = append(f.carry[:0], data[len(data)-keep:]...)
	}
}

// vec returns the unit vector of the absolute cycle c from the history
// buffer.
func (f *streamFilter) vec(c int64) []funcsim.Unit {
	off := c*int64(f.p.rate) - f.histBase
	return f.hist[off : off+int64(f.p.rate)]
}

// advance decides every cycle below limit: skip it, or execute it inside a
// window (opening the window with a silent warm-up replay when the machine
// is cold).
func (f *streamFilter) advance(limit int64) {
	for f.proc < limit {
		// Drop spans fully behind the frontier (their cycles executed).
		for len(f.spans) > 0 && f.spans[0].End <= f.proc {
			f.spans = f.spans[1:]
		}
		if len(f.spans) == 0 {
			f.skip(limit)
			return
		}
		sp := f.spans[0]
		start := sp.Start - sp.Start%f.p.align
		if start > f.proc {
			// A short gap is cheaper to execute through than to re-warm
			// after; skip only gaps wider than the warm-up window.
			if !f.hot || start-f.proc > f.p.overlap {
				f.skip(min(start, limit))
				if f.proc >= limit {
					return
				}
				continue
			}
		}
		if !f.hot {
			f.openWindow(f.proc)
		}
		end := min(sched.RoundUp(sp.End, f.p.align), limit)
		if end <= f.proc {
			// Span tail beyond the frontier: wait for more input.
			return
		}
		f.exec(f.proc, end)
	}
}

func (f *streamFilter) skip(to int64) {
	if to > f.proc {
		f.skipped += to - f.proc
		f.proc = to
		f.hot = false
	}
}

// exec steps cycles [from, to) with their report cycles going through the
// reduction, exactly as the unfiltered stream's do.
func (f *streamFilter) exec(from, to int64) {
	m := f.e.machine
	for c := from; c < to; c++ {
		f.ids = m.Step(f.vec(c), f.ids[:0])
		f.kernel++
		if len(f.ids) > 0 {
			f.cycle(c, f.ids)
		}
	}
	f.proc = to
	f.hot = true
}

// openWindow prepares the cold machine for owned execution at cycle start:
// counters are harvested, the machine reset, and the dependence window
// replayed silently from the history buffer. Mid-stream bases suppress
// start-of-data injection exactly like batch shard warm-up.
func (f *streamFilter) openWindow(start int64) {
	m := f.e.machine
	f.stall += m.StallCycles()
	f.flushes += m.Flushes()
	col := f.e.telemetryCollector()
	if col != nil {
		m.AttachTelemetry(nil)
	}
	m.Reset()
	base := start - f.p.overlap
	if base < 0 {
		base = 0
	}
	base -= base % f.p.align
	if base*int64(f.p.rate) < f.histBase {
		base = (f.histBase + int64(f.p.rate) - 1) / int64(f.p.rate)
	}
	m.SuppressStartOfData(base > 0)
	for c := base; c < start; c++ {
		f.ids = m.Step(f.vec(c), f.ids[:0])
	}
	if col != nil {
		m.AttachTelemetry(col)
	}
	f.windows++
}

// trim drops history the warm-up of any future window can no longer reach:
// windows open at or after proc, so units older than overlap+2·align
// cycles behind it are dead. The buffer is compacted only when the dead
// prefix dominates, amortizing the copy.
func (f *streamFilter) trim() {
	keepFrom := (f.proc - f.p.overlap - 2*f.p.align - 2) * int64(f.p.rate)
	if keepFrom <= f.histBase {
		return
	}
	dead := keepFrom - f.histBase
	if dead*2 < int64(len(f.hist)) {
		return
	}
	n := copy(f.hist, f.hist[dead:])
	f.hist = f.hist[:n]
	f.histBase = keepFrom
}

// advanceDeferred is the unbounded-dependence path: buffer until a hit,
// then replay everything and stay live. Reaching the buffer cap without a
// hit is ErrDeferredBufferFull: going live at that point would silently
// degrade the stream into unfiltered execution over an arbitrarily large
// replay, so the condition surfaces to the caller instead.
func (f *streamFilter) advanceDeferred() error {
	if !f.live {
		if len(f.spans) == 0 && f.hits == 0 {
			if len(f.hist) > maxDeferredUnits {
				return ErrDeferredBufferFull
			}
			return nil
		}
		f.live = true
		f.windows++
	}
	complete := (f.histBase + int64(len(f.hist))) / int64(f.p.rate)
	// Replay/execute with emission: the pre-hit prefix contains no literal,
	// hence no match, hence no report — emission is provably silent there.
	f.exec(f.proc, complete)
	return nil
}

// finish pads the final vector, folds in the pad-tail hazard, executes the
// remaining undecided cycles and returns the filtered stream statistics.
func (f *streamFilter) finish() (runOutput, error) {
	su := f.p.su
	totalUnits := f.fed * int64(su)
	padded := sched.RoundUp(totalUnits, int64(f.p.rate))
	padUnits := int(padded - totalUnits)
	for i := 0; i < padUnits; i++ {
		f.hist = append(f.hist, funcsim.Pad)
	}
	totalCycles := padded / int64(f.p.rate)
	if padUnits > 0 && f.p.maxLit > 0 {
		padBytes := (padUnits + su - 1) / su
		tail := f.carry
		if prefilter.TailHitFold(tail, f.p.lits, padBytes, f.p.fold) {
			// A literal can complete inside the pad: phantom pad reports
			// fire in the final cycle of an unfiltered run and must be
			// counted here identically.
			f.spans = append(f.spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
			f.hits++
		}
	}
	if f.p.bounded {
		f.advance(totalCycles)
	} else {
		if f.live || f.hits > 0 {
			f.advanceDeferred()
		}
		if !f.live {
			// No literal ever hit (including a possibly over-cap wedged
			// stream): every buffered cycle is provably match-free.
			f.skip(totalCycles)
		}
	}
	m := f.e.machine
	notePrefilter(f.e.telemetryCollector(), f.hits, f.windows, f.kernel, f.skipped)
	return f.end(Stats{
		KernelCycles:     f.kernel,
		StallCycles:      f.stall + m.StallCycles(),
		Flushes:          f.flushes + m.Flushes(),
		PrefilterWindows: f.windows,
		SkippedCycles:    f.skipped,
	}, nil), nil
}
