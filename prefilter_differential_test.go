package sunder

import (
	"bytes"
	"fmt"
	"testing"

	"sunder/internal/sched"
	"sunder/internal/workload"
)

// substrates are the backends whose runners execute prefiltered windows.
var substrates = []string{"nfa", "dfa"}

// compileFiltered compiles patterns with PrefilterOn on backend and fails
// unless the filter engaged.
func compileFiltered(t *testing.T, patterns []Pattern, backend string) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Prefilter, opts.Backend = PrefilterOn, backend
	eng, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	return eng
}

// unfiltered is the scan of input by patterns with no prefilter, on the
// machine.
func unfiltered(t *testing.T, patterns []Pattern, input []byte) *ScanResult {
	t.Helper()
	eng, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPrefilterMidStreamWindows aims windows at what a mid-input start has
// to get right, on both substrates and every entry point: an anchored rule
// whose literal recurs mid-input, so that windows warm up from bases past
// byte 0, where the anchored start must stay quiet (the machine's
// SuppressStartOfData, the lazy DFA's ResetMidStream — a warm-up as long as
// the dependence window outlasts a wrongly seeded anchor, so the seeding
// itself is pinned by internal/dfa's TestDFAMidStreamStart); windows separated
// by skipped gaps; and the pad-tail phantom span of an odd-length input.
// Every result must equal the unfiltered scan, with kernel + skipped = its
// KernelCycles. The literals are sparse enough that neither substrate stops
// looking for them; a dense copy of the input stops at the first checkpoint
// and runs as one window, with the same matches and the same phantom.
func TestPrefilterMidStreamWindows(t *testing.T) {
	patterns := []Pattern{{Expr: `^.{1,8}KEY`, Code: 1}, {Expr: `lock[0-9]`, Code: 2}, {Expr: `qz.`, Code: 3}}
	for _, c := range []struct {
		name          string
		repeats, fill int
		stops         bool
	}{{"sparse", 4, 1000, false}, {"dense", 48, 8, true}} {
		filler := bytes.Repeat([]byte("-"), c.fill)
		var input []byte
		input = append(input, "abKEY"...)
		for i := 0; i < c.repeats; i++ {
			input = append(append(append(input, filler...), "xyzwKEY lock7"...), filler...)
		}
		input = append(input, "..qz"...) // odd length: the pad completes `qz.`
		if len(input)%2 == 0 {
			input = input[1:]
		}
		want := unfiltered(t, patterns, input)
		for _, backend := range substrates {
			label := c.name + "/" + backend
			eng := compileFiltered(t, patterns, backend)
			res, err := eng.Scan(input)
			agree(t, label+"/Scan", want, res, err)
			// Windows after skipped gaps start mid-input; the phantom counts
			// in Reports but is no match.
			st := res.Stats
			if want.Stats.Reports <= int64(len(want.Matches)) {
				t.Fatalf("%s: %d reports for %d matches: no phantom", label, want.Stats.Reports, len(want.Matches))
			}
			if !c.stops && (st.PrefilterWindows < 3 || st.SkippedCycles == 0 || st.PrefilterStoppedAt != 0) {
				t.Fatalf("%s: %+v: no mid-input window", label, st)
			}
			if c.stops && (st.PrefilterStoppedAt != firstCheckpoint || st.PrefilterWindows != 1 || st.SkippedCycles != 0) {
				t.Fatalf("%s: %+v: did not stop at the first checkpoint", label, st)
			}
			for _, w := range []int{1, 3} {
				res, err := eng.ScanParallel(input, ScanOptions{Workers: w})
				agree(t, fmt.Sprintf("%s/ScanParallel/w=%d", label, w), want, res, err)
			}
			batch, err := eng.ScanBatch([][]byte{input, input}, ScanOptions{Workers: 2})
			if err == nil {
				res = batch[1]
			}
			agree(t, label+"/ScanBatch", want, res, err)
			for _, chunk := range []int{1, 7, len(input)} {
				got, stats := streamChunks(t, eng, input, chunk)
				agree(t, fmt.Sprintf("%s/Stream/chunk=%d", label, chunk), want, &ScanResult{Matches: got, Stats: stats}, nil)
			}
		}
	}
}

// TestRunWindowsFullCoverEqualsSequential holds the windowed loop to the
// unfiltered scan, on both substrates: a span covering the input, run as
// ranges on their own runners cut just past every report — each warming up
// over the reports of the one before, which the warm-up must not report
// again — reproduces it match for match, with KernelCycles the total.
func TestRunWindowsFullCoverEqualsSequential(t *testing.T) {
	forWindowedBackends(t, func(wt windowTest) {
		// Cut the cover just past every report cycle, so that the next
		// range's warm-up replays it.
		cover := []sched.CycleSpan{{End: wt.total}}
		cuts := []int64{0}
		for _, m := range wt.ref.Matches {
			c := sched.RoundUp(m.Position*wt.geo.su/wt.geo.rate+1, wt.geo.align)
			if c > cuts[len(cuts)-1] && c < wt.total {
				cuts = append(cuts, c)
			}
		}
		cuts = append(cuts, wt.total)
		out := wt.run(cover, 0, cuts[1])
		for g := 1; g+1 < len(cuts); g++ {
			out.add(wt.run(cover, cuts[g], cuts[g+1]))
		}
		wt.check("cover", out)
		if out.stats.KernelCycles != wt.total {
			t.Errorf("%s/cover: %d kernel cycles, want all %d", wt.backend, out.stats.KernelCycles, wt.total)
		}
	})
}

// TestRunWindowsSparseWindows: spans only around the unfiltered scan's
// report cycles reproduce its matches and reports while executing a
// fraction of the cycles, on both substrates.
func TestRunWindowsSparseWindows(t *testing.T) {
	forWindowedBackends(t, func(wt windowTest) {
		var spans []sched.CycleSpan
		for _, m := range wt.ref.Matches {
			c := m.Position * wt.geo.su / wt.geo.rate
			spans = append(spans, sched.CycleSpan{Start: c - 1, End: c + 2})
		}
		out := wt.run(append(spans, sched.CycleSpan{Start: wt.total - 1, End: wt.total}), 0, wt.total)
		wt.check("sparse", out)
		if out.stats.KernelCycles >= wt.total {
			t.Errorf("%s/sparse: executed %d of %d cycles, nothing skipped", wt.backend, out.stats.KernelCycles, wt.total)
		}
	})
}

// windowTest is one substrate's prefiltered Bro217 engine with the
// unfiltered scan it must reproduce.
type windowTest struct {
	backend string
	geo     *geometry
	ref     *ScanResult
	total   int64
	run     func(spans []sched.CycleSpan, from, to int64) runOutput
	check   func(label string, out runOutput)
}

// forWindowedBackends calls f once per substrate with Bro217 compiled
// unfiltered (the reference) and with the prefilter forced on.
func forWindowedBackends(t *testing.T, f func(windowTest)) {
	t.Helper()
	w := workload.MustGet("Bro217", 0.05, 8000)
	want, err := CompileAutomaton(w.Automaton, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Scan(w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Matches) == 0 {
		t.Fatal("vacuous: Bro217 found no match")
	}
	for _, backend := range substrates {
		opts := DefaultOptions()
		opts.Backend, opts.Prefilter = backend, PrefilterOn
		eng, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !eng.geo.bounded {
			t.Fatal("Bro217 must have a bounded dependence window")
		}
		total := ref.Stats.KernelCycles
		f(windowTest{
			backend: backend,
			geo:     &eng.geo,
			ref:     ref,
			total:   total,
			run: func(spans []sched.CycleSpan, from, to int64) runOutput {
				rs := []*runner{eng.runner()}
				defer eng.release(rs)
				return eng.runWindows(rs[0], w.Input, spans, from, to, nil)
			},
			check: func(label string, out runOutput) {
				t.Helper()
				out.stats.SkippedCycles = total - out.stats.KernelCycles
				agree(t, backend+"/"+label, ref, &ScanResult{Matches: out.matches, Stats: out.stats}, nil)
			},
		})
	}
}

// TestPrefilterNoLiteralVerdict pins the conservative verdict: a rule set
// whose matches need no literal (a bare wide class) must disable the
// filter, report why, and scan exactly like an unfiltered engine.
func TestPrefilterNoLiteralVerdict(t *testing.T) {
	patterns := []Pattern{{Expr: `needle`, Code: 1}, {Expr: `[a-z]`, Code: 2}}
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	filt, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if filt.pre.enabled() {
		t.Fatalf("expected no-filter verdict, got strategy %s", filt.Info().PrefilterStrategy)
	}
	info := filt.Info()
	if info.PrefilterStrategy == "off" || info.PrefilterLiterals != nil {
		t.Errorf("Info must carry the disable reason, got %q / %q",
			info.PrefilterStrategy, info.PrefilterLiterals)
	}
	base, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("a needle in a HAYSTACK 0123 xyz")
	bres, err := base.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := filt.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "no-filter", bres, fres, nil)
	if fres.Stats.SkippedCycles != 0 || fres.Stats.PrefilterWindows != 0 {
		t.Errorf("disabled filter must not report windows/skips: %+v", fres.Stats)
	}
}

// TestPrefilterSkipsNoMatchInput pins the fast path itself: on an input
// with no literal occurrence the whole scan is skipped.
func TestPrefilterSkipsNoMatchInput(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `EXPLOIT[0-9]`, Code: 7}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	input := make([]byte, 100000)
	for i := range input {
		input[i] = byte('a' + i%23)
	}
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Stats.Reports != 0 {
		t.Fatalf("unexpected matches on literal-free input: %+v", res.Stats)
	}
	if res.Stats.KernelCycles != 0 || res.Stats.SkippedCycles == 0 {
		t.Fatalf("expected a full skip, got %+v", res.Stats)
	}
	if len(res.PerPU) == 0 {
		t.Fatal("skipped scan must still shape PerPU")
	}
}
