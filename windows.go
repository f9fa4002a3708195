package sunder

import (
	"cmp"
	"strconv"
	"sync"

	"sunder/internal/automata"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
)

// This file is the one span loop behind the prefilter's candidate windows
// and ScanParallel's shares: a run is cut into contiguous shares of its
// cycles, each share executes the windows its spans call for on a runner,
// and the shares merge in input order. An unfiltered parallel scan is one
// span that covers the input, cut into even shares; a prefiltered scan is
// its literal hits' spans, cut by count.

// geometry is how a compiled automaton's cycles cut into windows and
// shares: rate units per cycle and su per input byte; cuts fall on
// multiples of align cycles, which sit between two bytes; a window or
// share warms up over the overlap cycles before it, the dependence window
// rounded up to align — which rebuilds its entry state only when the
// window is bounded (an automaton without cycles).
type geometry struct {
	rate, su       int64
	align, overlap int64
	bounded        bool
}

func newGeometry(ua *automata.UnitAutomaton, depth int, bounded bool) geometry {
	align := sched.Alignment(ua.Rate, ua.SymbolUnits)
	return geometry{rate: int64(ua.Rate), su: int64(ua.SymbolUnits), align: align, overlap: sched.Overlap(depth, align), bounded: bounded}
}

// cycles returns the device cycles of n input bytes, the last one padded.
func (g *geometry) cycles(n int64) int64 { return (n*g.su + g.rate - 1) / g.rate }

// cycleByte is the input offset of the first byte of cycle c, an aligned
// cycle.
func (g *geometry) cycleByte(c int64) int64 { return c * g.rate / g.su }

// cuts returns the cuts of a run of total cycles into up to k shares of
// its sorted spans: share i is cycles [cuts[i], cuts[i+1]). One span over
// the whole run, an unfiltered scan's, splits into even, aligned shares of
// at least sched.DefaultMinShardCycles cycles — one when the dependence
// window is unbounded, since no warm-up rebuilds a cut's state. A
// prefilter's spans split by count, each share from the aligned start of
// its first.
func (g *geometry) cuts(spans []sched.CycleSpan, k int, total int64) []int64 {
	cuts := []int64{0}
	if len(spans) == 1 && spans[0] == (sched.CycleSpan{End: total}) {
		if !g.bounded {
			k = 1
		}
		for _, sh := range sched.PlanShards(total, k, g.align, 0, sched.DefaultMinShardCycles) {
			if sh.StartCycle > 0 {
				cuts = append(cuts, sh.StartCycle)
			}
		}
		return append(cuts, total)
	}
	k = min(k, len(spans))
	for i := 1; i < k; i++ {
		c := max(spans[i*len(spans)/k].Start, 0)
		cuts = append(cuts, c-c%g.align)
	}
	return append(cuts, total)
}

// runShares runs the windows of spans, sorted, among a run's total cycles:
// on rs[0] alone, or, with more runners, in up to len(rs) shares (cuts),
// each on a runner of rs of its own — rs[0] the call's, the others taken
// on their workers when nil — whose runs merge in input order (a
// window that straddles two shares is opened by both). On the machine the
// shares record their report cycles, and the merge feeds them to one
// report model, as a sequential run would have. A call with more than one
// runner records a parallel_run span, with a shard span per share.
func (e *Engine) runShares(rs []*runner, input []byte, spans []sched.CycleSpan, total int64) runOutput {
	if len(rs) == 1 {
		return e.runWindows(rs[0], input, spans, 0, total, nil)
	}
	cuts := e.geo.cuts(spans, len(rs), total)
	k := len(cuts) - 1
	sp := e.tel.Load().Spans().Root("parallel_run")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("cycles=" + strconv.FormatInt(total, 10) + " shards=" + strconv.Itoa(k) +
			" overlap=" + strconv.FormatInt(e.geo.overlap, 10))
	}
	if k == 1 {
		return e.runWindows(rs[0], input, spans, 0, total, sp)
	}
	// The workers do not capture rs: a slice a goroutine captures escapes,
	// and Scan's one-runner array would then be allocated per call. Each
	// returns its runner in shares, and rs takes them after the wait.
	shares := make([]struct {
		rn  *runner
		out runOutput
	}, k)
	var wg sync.WaitGroup
	for g := range k {
		rn, from, to := rs[g], cuts[g], cuts[g+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A runner is taken on its worker: runners built one after
			// another share cache lines, which the workers then write
			// every cycle.
			if rn == nil {
				rn = e.runner()
			}
			if rn.model != nil {
				rn.sink = &rn.trace
			}
			shares[g].rn, shares[g].out = rn, e.runWindows(rn, input, spans, from, to, sp)
		}()
	}
	wg.Wait()
	out := shares[0].out
	for g, sh := range shares {
		rs[g] = sh.rn
		if g > 0 {
			out.add(sh.out)
		}
	}
	if model := rs[0].model; model != nil {
		// The first share's model, idle while the shares traced, models
		// the merged run.
		model.Reset()
		for _, sh := range shares {
			sh.out.trace.Replay(model.OnReportCycle)
		}
		out.reportOn(model, total)
	}
	return out
}

// runWindows executes, as one run on rn, the windows spans call for among
// cycles [from, to) of input, under a shard span of sp; finish pads the
// final cycle if a window holds it.
func (e *Engine) runWindows(rn *runner, input []byte, spans []sched.CycleSpan, from, to int64, sp *telemetry.SpanCtx) runOutput {
	ss := sp.Child("shard")
	defer ss.End()
	rn.reset(nil, min(e.geo.cycleByte(to-from), int64(len(input))))
	w := windowLoop{rn: rn, g: &e.geo, sp: ss, hist: input, fed: int64(len(input)), spans: spans, proc: from}
	w.advance(to)
	out := rn.finish()
	out.windows = w.windows
	return out
}

// windowLoop is the one loop that runs windows, for whole inputs
// (runWindows) and prefiltered streams (streamFilter) alike: it decides the
// cycles from proc on in order, skipping those no span covers and having rn
// execute the rest. A window opens cold with a silent warm-up replay of the
// dependence window (runner.resetAt) and closes at a gap wider than
// that replay; a shorter gap is executed through. Windows open and close on
// aligned cycles, which fall between two bytes.
type windowLoop struct {
	rn *runner
	g  *geometry
	// sp records a span per warm-up; nil on a stream.
	sp *telemetry.SpanCtx
	// hist holds input bytes [histBase, fed).
	hist          []byte
	histBase, fed int64
	// spans are the candidate spans not yet passed, in Start order; proc is
	// the next cycle to decide; hot reports that rn's state equals the
	// sequential state entering cycle proc.
	spans []sched.CycleSpan
	proc  int64
	hot   bool
	// skipped counts the cycles proven match-free, windows those opened;
	// rn counts the executed ones.
	skipped, windows int64
}

// bySpanStart orders spans as windowLoop decides them.
func bySpanStart(a, b sched.CycleSpan) int { return cmp.Compare(a.Start, b.Start) }

// bytes returns the buffered input of the aligned cycles [from, to), cut at
// the bytes fed so far: the final cycle's pad is the runner's.
func (w *windowLoop) bytes(from, to int64) []byte {
	lo, hi := w.g.cycleByte(from), min(w.g.cycleByte(to), w.fed)
	return w.hist[lo-w.histBase : hi-w.histBase]
}

// advance decides every cycle below limit.
func (w *windowLoop) advance(limit int64) {
	for w.proc < limit {
		// Drop spans fully behind the frontier (their cycles executed).
		for len(w.spans) > 0 && w.spans[0].End <= w.proc {
			w.spans = w.spans[1:]
		}
		if len(w.spans) == 0 {
			w.skip(limit)
			return
		}
		sp := w.spans[0]
		start := sp.Start - sp.Start%w.g.align
		if start > w.proc && (!w.hot || start-w.proc > w.g.overlap) {
			w.skip(min(start, limit))
			continue
		}
		if !w.hot {
			// Open a window at proc: warm up cold from the aligned base
			// one dependence window back.
			base := max(w.proc-w.g.overlap, 0)
			base -= base % w.g.align
			warm := w.sp.Child("warmup")
			w.rn.resetAt(base, w.bytes(base, w.proc))
			warm.End()
			w.windows++
		}
		end := min(sched.RoundUp(sp.End, w.g.align), limit)
		if end <= w.proc {
			// Span tail beyond the frontier: wait for more input.
			return
		}
		w.rn.feed(w.bytes(w.proc, end))
		w.proc, w.hot = end, true
	}
}

func (w *windowLoop) skip(to int64) {
	if to > w.proc {
		w.skipped += to - w.proc
		w.proc, w.hot = to, false
		w.rn.skipTo(to)
	}
}
