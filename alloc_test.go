package sunder

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sunder/internal/workload"
)

// TestAllocationPins holds the steady-state allocation count of the hot
// entry points at what is measured — a handful for the result, nothing per
// cycle, per chunk or per report — so the benchmark's 2% allocs_per_op
// bound is caught by `go test` first: runner and reducer scratch must live
// on the engine, not be rebuilt per call.
func TestAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	patterns := []Pattern{{Expr: `needle[0-9]+x`, Code: 1}, {Expr: `haystack`, Code: 2}}
	input := bytes.Repeat([]byte("abcdefgh"), 8<<10) // 64 KiB, no match
	compile := func(backend string, pre PrefilterMode) *Engine {
		opts := DefaultOptions()
		opts.Backend, opts.Prefilter = backend, pre
		eng, err := Compile(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	scan := func(eng *Engine) func() {
		return func() {
			res, err := eng.Scan(input)
			if err != nil || len(res.Matches) != 0 {
				t.Fatalf("scan: %v, %d matches", err, len(res.Matches))
			}
		}
	}
	stream := func(eng *Engine) func() {
		onMatch := func(Match) { t.Error("unexpected match") }
		return func() {
			st, err := eng.NewStream(onMatch)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(input); off += 1460 {
				if _, err := st.Write(input[off:min(off+1460, len(input))]); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()
		}
	}
	// The benchmark's dfa_thrash row: SPM overflows the lazy DFA's cache, so
	// after a warm-up every scan falls back to direct NFA stepping. What is
	// left is the result (SPM matches on most bytes), its match slice sized
	// once from the last scan's density: nothing per cycle or per match.
	spm := workload.MustGet("SPM", workload.DefaultScale, 16<<10)
	auto := DefaultOptions()
	auto.Backend = "auto"
	thrash, err := CompileAutomaton(spm.Automaton, auto)
	if err != nil {
		t.Fatal(err)
	}
	thrashScan := func(off int) func() {
		return func() {
			if _, err := thrash.Scan(spm.Input[off : off+2<<10]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for off := 0; off+2<<10 <= len(spm.Input); off += 2 << 10 {
		thrashScan(off)()
	}
	if st := thrash.DFAStats(); st.Fallbacks == 0 {
		t.Fatalf("SPM no longer thrashes the DFA cache: %+v", st)
	}
	// ScanBatch on the lazy DFA: the workers' runners come back from the
	// artifact's pool with their state caches, so a call after the first
	// allocates the results and the worker pool and nothing per DFA state.
	batchEng, batchIn := compile("dfa", PrefilterOff), [][]byte{input[:16<<10], input[:16<<10]}
	batch := func() {
		if _, err := batchEng.ScanBatch(batchIn, ScanOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	// Prefiltered on the lazy DFA: the windows run on the engine's warm
	// runner; what is left is the literal scan's spans, the window plan,
	// the matches and the result — nothing per window or per cycle.
	hitIn := bytes.Clone(input[:16<<10])
	for off := 1000; off+16 < len(hitIn); off += 4000 {
		copy(hitIn[off:], "needle42x haystack")
	}
	window := compile("dfa", PrefilterOn)
	windowScan := func() {
		res, err := window.Scan(hitIn)
		if err != nil || len(res.Matches) != 8 || res.Stats.PrefilterWindows == 0 {
			t.Fatalf("windowed scan: %v, %d matches, %d windows", err, len(res.Matches), res.Stats.PrefilterWindows)
		}
	}
	windowScan()
	// The benchmark's nfa_dense row: Snort on the bitvec core at about 1.7
	// matches per byte. A warm scan allocates the result and its match
	// slice, sized from the last scan's density so it never regrows.
	snort := workload.MustGet("Snort", 0.02, 4<<10)
	nfaOpts := DefaultOptions()
	nfaOpts.Backend = "nfa"
	dense, err := CompileAutomaton(snort.Automaton, nfaOpts)
	if err != nil {
		t.Fatal(err)
	}
	var denseMatches int
	denseScan := func() {
		res, err := dense.Scan(snort.Input)
		if err != nil || len(res.Matches) < len(snort.Input) {
			t.Fatalf("dense scan: %v, %d matches on %d bytes", err, len(res.Matches), len(snort.Input))
		}
		denseMatches = len(res.Matches)
	}
	denseScan()
	for _, pin := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"scan/nfa", scan(compile("nfa", PrefilterOff)), 3},
		{"scan/dfa", scan(compile("dfa", PrefilterOff)), 2},
		{"scan/dfa-thrash", thrashScan(0), 4},
		{"scan/prefilter-skip", scan(compile("nfa", PrefilterOn)), 6},
		{"stream/dfa", stream(compile("dfa", PrefilterOff)), 3},
		{"stream/nfa", stream(compile("nfa", PrefilterOff)), 2},
		{"batch/dfa-warm", batch, 14},
		{"prefilter/dfa-window", windowScan, 14},
		{"scan/nfa-dense", denseScan, 6},
	} {
		if got := testing.AllocsPerRun(10, pin.op); got > pin.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", pin.name, got, pin.max)
		} else {
			t.Logf("%s: %.1f allocs/op (ceiling %.0f)", pin.name, got, pin.max)
		}
	}
	// The bytes the dense scan allocates are its matches and little else:
	// a regrown match slice would cost about twice the final one.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	denseScan()
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, 1.3*float64(uintptr(denseMatches)*unsafe.Sizeof(Match{}))
	if float64(got) > limit {
		t.Errorf("scan/nfa-dense: %d bytes allocated for %d matches, want <= %.0f", got, denseMatches, limit)
	} else {
		t.Logf("scan/nfa-dense: %d bytes allocated for %d matches (ceiling %.0f)", got, denseMatches, limit)
	}
}

// TestSparseScanAfterDense: a runner sizes a run's match slice from its
// last run, so a large scan with one match, after a dense one, must not
// reserve for the matches the dense density would predict over its size
// (half a million here); it allocates at most about twice the last run's
// match slice.
func TestSparseScanAfterDense(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	dense := bytes.Repeat([]byte("ab"), 2<<10) // 2,048 matches
	sparse := bytes.Repeat([]byte("z"), 1<<20)
	copy(sparse[len(sparse)-4:], "ab")
	denseBytes := float64(2<<10) * float64(unsafe.Sizeof(Match{}))
	for _, c := range []struct {
		name, backend string
		pre           PrefilterMode
	}{{"nfa", "nfa", PrefilterOff}, {"dfa", "dfa", PrefilterOff}, {"dfa-prefilter", "dfa", PrefilterOn}} {
		opts := DefaultOptions()
		opts.Backend, opts.Prefilter = c.backend, c.pre
		eng, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(in []byte, want int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := eng.Scan(in)
			runtime.ReadMemStats(&after)
			if err != nil || len(res.Matches) != want {
				t.Fatalf("%s: %v, %d matches, want %d", c.name, err, len(res.Matches), want)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		scan(dense, 2<<10)
		scan(sparse, 1) // warm the DFA's states on the sparse input
		scan(dense, 2<<10)
		got, limit := scan(sparse, 1), 3*denseBytes
		if float64(got) > limit {
			t.Errorf("%s: one-match scan after a dense one allocated %d bytes, want <= %.0f", c.name, got, limit)
		} else {
			t.Logf("%s: one-match scan after a dense one allocated %d bytes (ceiling %.0f)", c.name, got, limit)
		}
	}
}

// TestRunnerReleasesMatches: the engine's persistent runners, and the
// pooled ones of the parallel entry points, hand a scan's matches to its
// result and keep no reference, so a large result is not pinned on the
// engine (or on the artifact's free list) until the next scan (it showed as
// live heap in the benchmark when it was).
func TestRunnerReleasesMatches(t *testing.T) {
	input := bytes.Repeat([]byte("a"), 1024)
	for _, backend := range []string{"nfa", "dfa"} {
		opts := DefaultOptions()
		opts.Backend = backend
		eng, err := Compile([]Pattern{{Expr: `a`, Code: 1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Scan(input)
		if err != nil || len(res.Matches) != 1024 {
			t.Fatalf("%s: %v, %d matches", backend, err, len(res.Matches))
		}
		if eng.nfaRun != nil && eng.nfaRun.matches != nil || eng.dfaRun != nil && eng.dfaRun.matches != nil {
			t.Errorf("%s: runner still references the result's matches", backend)
		}
		batch, err := eng.ScanBatch([][]byte{input}, ScanOptions{Workers: 1})
		if err != nil || len(batch[0].Matches) != 1024 {
			t.Fatalf("%s: batch: %v", backend, err)
		}
		pooled := idleDFARunners(eng)
		if (len(pooled) == 1) != (backend == "dfa") {
			t.Errorf("%s: ScanBatch left %d runners on the DFA free list", backend, len(pooled))
		}
		for _, d := range pooled {
			if d.matches != nil {
				t.Errorf("%s: pooled runner still references the batch result's matches", backend)
			}
		}
	}
}

// idleDFARunners returns the runners on eng's artifact's free list.
func idleDFARunners(eng *Engine) []*dfaRunner {
	eng.dfaMu.Lock()
	defer eng.dfaMu.Unlock()
	if l := eng.dfaIdle.Value(); l != nil {
		return slices.Clone(*l)
	}
	return nil
}

// TestDFAPoolSurvivesCollection: a runner released on one goroutine is
// what the next call, on another, gets back, even across a collection — the
// free list is one list, not a slot per P, and one collection does not drop
// it. (A sync.Pool stranded it in the releasing P's private slot about half
// the time, and the call that missed it re-warmed a cold runner.)
func TestDFAPoolSurvivesCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a sync.Pool drops entries at random, the list's anchors among them")
	}
	opts := DefaultOptions()
	opts.Backend = "dfa"
	eng, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	released := eng.runner(legDFA, true)
	done := make(chan bool)
	go func() {
		eng.release([]windowRunner{released})
		done <- true
	}()
	<-done
	runtime.GC()
	got := make(chan windowRunner)
	go func() { got <- eng.runner(legDFA, true) }()
	if rn := <-got; rn != released {
		t.Fatal("a call after one collection built a new runner while the released one was idle")
	}
}

// TestDFAPoolDroppedWhenIdle: two collections with no call in between drop
// the free list and its runners, exactly as a sync.Pool's entries would
// be: an idle rule set retains nothing.
func TestDFAPoolDroppedWhenIdle(t *testing.T) {
	opts := DefaultOptions()
	opts.Backend = "dfa"
	eng, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.Repeat([]byte("xabbbcy"), 200)
	if _, err := eng.ScanBatch([][]byte{in, in}, ScanOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	eng.dfaMu.Lock()
	l := eng.dfaIdle.Value()
	eng.dfaMu.Unlock()
	if l != nil {
		t.Fatalf("two idle collections left the free list alive with %d runners", len(*l))
	}
}
