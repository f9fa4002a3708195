package sunder

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sunder/internal/sched"
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
	// matches per byte. A warm scan allocates the result, its match slice,
	// sized from the last scan's density so it never regrows, and its
	// per-PU rows, read from the report model once.
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
	// The rule set stops looking for literals on a literal-dense input
	// (its "needle"s never complete a match): the input runs as one
	// window, and the literal scan adds its probe to the unfiltered scan's
	// allocations — its spans stay in the engine's scratch.
	bailIn := bytes.Repeat([]byte("needle.."), 2<<10)
	bail := compile("dfa", PrefilterOn)
	bailScan := func() {
		res, err := bail.Scan(bailIn)
		if err != nil || len(res.Matches) != 0 || res.Stats.PrefilterStoppedAt == 0 {
			t.Fatalf("bailing scan: %v, %d matches, %+v", err, len(res.Matches), res.Stats)
		}
	}
	bailScan()
	// ScanParallel on the machine at two workers: a bounded rule set cuts
	// the input into two shares, whose runners come back from the
	// artifact's free list with their clones, report models and traces —
	// the first share's model models the merged run. What is left is the
	// call's runner slice, its share outputs, cuts and goroutines, and the
	// result with its per-PU rows.
	shareEng, err := Compile([]Pattern{{Expr: `needle[0-9]x`, Code: 1}, {Expr: `haystack`, Code: 2}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shareScan := func() {
		res, err := shareEng.ScanParallel(input, ScanOptions{Workers: 2})
		if err != nil || len(res.Matches) != 0 {
			t.Fatalf("parallel scan: %v, %d matches", err, len(res.Matches))
		}
	}
	if cuts := shareEng.geo.cuts([]sched.CycleSpan{{End: shareEng.geo.cycles(int64(len(input)))}}, 2, shareEng.geo.cycles(int64(len(input)))); len(cuts) != 3 {
		t.Fatalf("the parallel pin's input cuts into %d shares, want 2", len(cuts)-1)
	}
	shareScan()
	// Prefiltered scans whose literal hits open windows but complete no
	// match: the spans are planned into the taken runner's scratch, so a
	// warm scan allocates its result and its literal probe. On the machine
	// with telemetry attached the 17 windows' warm-ups mute the device's
	// collector, and the scan allocates what it does without telemetry.
	windowsIn := bytes.Clone(input)
	for off := 1000; off+8 < len(windowsIn); off += 4000 {
		copy(windowsIn[off:], "needle")
	}
	windowsScan := func(eng *Engine) func() {
		return func() {
			res, err := eng.Scan(windowsIn)
			if err != nil || len(res.Matches) != 0 || res.Stats.PrefilterWindows != 17 || res.Stats.PrefilterStoppedAt != 0 {
				t.Fatalf("windowed scan: %v, %d matches, %+v", err, len(res.Matches), res.Stats)
			}
		}
	}
	bounded := func(backend string) *Engine {
		opts := DefaultOptions()
		opts.Backend, opts.Prefilter = backend, PrefilterOn
		eng, err := Compile([]Pattern{{Expr: `needle[0-9]x`, Code: 1}, {Expr: `haystack`, Code: 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	telWindows := bounded("nfa")
	telWindows.SetTelemetry(NewTelemetry(TelemetryOptions{}))
	// The one-runner calls keep their runner in the engine's slot, not on
	// the free list, whose sync.Pool anchor a collection drops: a
	// collection inside the call costs nothing.
	gcScan, gcStream := scan(compile("nfa", PrefilterOff)), stream(compile("dfa", PrefilterOff))
	var clone *Engine
	for _, pin := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"scan/nfa", scan(compile("nfa", PrefilterOff)), 2},
		{"scan/dfa", scan(compile("dfa", PrefilterOff)), 2},
		{"scan/dfa-thrash", thrashScan(0), 4},
		{"scan/prefilter-skip", scan(compile("nfa", PrefilterOn)), 6},
		// 64 KiB without a literal passes every checkpoint and decides
		// none: 5 allocations before the per-scan rule.
		{"scan/prefilter-skip-64k", scan(compile("dfa", PrefilterOn)), 5},
		{"scan/prefilter-bail", bailScan, 2 + 1},
		{"stream/dfa", stream(compile("dfa", PrefilterOff)), 3},
		{"stream/nfa", stream(compile("nfa", PrefilterOff)), 1},
		{"batch/dfa-warm", batch, 14},
		{"prefilter/dfa-window", windowScan, 14},
		{"scan/nfa-dense", denseScan, 3},
		{"parallel/nfa-2", shareScan, 14},
		{"scan/prefilter-windows", windowsScan(bounded("dfa")), 3},
		{"scan/prefilter-windows-nfa", windowsScan(bounded("nfa")), 3},
		{"scan/prefilter-windows-telemetry", windowsScan(telWindows), 3},
		{"scan/nfa-gc", func() { runtime.GC(); gcScan() }, 2},
		{"stream/dfa-gc", func() { runtime.GC(); gcStream() }, 3},
		{"clone", func() { clone = shareEng.Clone() }, 1},
	} {
		if got := testing.AllocsPerRun(10, pin.op); got > pin.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", pin.name, got, pin.max)
		} else {
			t.Logf("%s: %.1f allocs/op (ceiling %.0f)", pin.name, got, pin.max)
		}
	}
	if clone.compiledArtifact != shareEng.compiledArtifact {
		t.Error("a clone does not share its engine's artifact")
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

// TestRunnerReleasesMatches: the runner Scan hands back to the engine's
// slot, and the pooled ones of the parallel entry points, hand a scan's
// matches to its result and keep no reference, so a large result is not
// pinned on the engine (or on the artifact's free list) until the next scan
// (it showed as live heap in the benchmark when it was).
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
		if rn := eng.slot.Load(); rn == nil || rn.matches != nil {
			t.Errorf("%s: runner still references the result's matches", backend)
		}
		batch, err := eng.ScanBatch([][]byte{input}, ScanOptions{Workers: 1})
		if err != nil || len(batch[0].Matches) != 1024 {
			t.Fatalf("%s: batch: %v", backend, err)
		}
		pooled := idleRunnerList(eng)
		if len(pooled) != 1 {
			t.Errorf("%s: ScanBatch left %d runners on the free list, want 1", backend, len(pooled))
		}
		for _, rn := range pooled {
			if rn.matches != nil {
				t.Errorf("%s: pooled runner still references the batch result's matches", backend)
			}
		}
	}
}

// idleRunnerList returns the runners on eng's artifact's free list.
func idleRunnerList(eng *Engine) []*runner {
	eng.idleMu.Lock()
	defer eng.idleMu.Unlock()
	if l := eng.idle.Value(); l != nil {
		return slices.Clone(*l)
	}
	return nil
}

// TestDFAPoolSurvivesCollection: a runner released on one goroutine is
// what the next call, on another, gets back, even across a collection — the
// free list is one list, not a slot per P, and one collection does not drop
// it. (A sync.Pool stranded it in the releasing P's private slot about half
// the time, and the call that missed it re-warmed a cold runner.) The list
// holds the runners of either substrate.
func TestDFAPoolSurvivesCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a sync.Pool drops entries at random, the list's anchors among them")
	}
	for _, backend := range []string{"nfa", "dfa"} {
		opts := DefaultOptions()
		opts.Backend = backend
		eng, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		released := eng.runner()
		done := make(chan bool)
		go func() {
			eng.release([]*runner{released})
			done <- true
		}()
		<-done
		runtime.GC()
		got := make(chan *runner)
		go func() { got <- eng.runner() }()
		if rn := <-got; rn != released {
			t.Fatalf("%s: a call after one collection built a new runner while the released one was idle", backend)
		}
	}
}

// TestDFAPoolDroppedWhenIdle: two collections with no call in between drop
// the free list and its runners, exactly as a sync.Pool's entries would
// be: an idle rule set retains nothing, on either substrate.
func TestDFAPoolDroppedWhenIdle(t *testing.T) {
	for _, backend := range []string{"nfa", "dfa"} {
		opts := DefaultOptions()
		opts.Backend = backend
		eng, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		in := bytes.Repeat([]byte("xabbbcy"), 200)
		if _, err := eng.ScanBatch([][]byte{in, in}, ScanOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if len(idleRunnerList(eng)) == 0 {
			t.Fatalf("%s: ScanBatch left no runner on the free list", backend)
		}
		runtime.GC()
		runtime.GC()
		if l := idleRunnerList(eng); l != nil {
			t.Fatalf("%s: two idle collections left the free list alive with %d runners", backend, len(l))
		}
	}
}

// TestResultSizes pins Stream and ScanResult at no more than 112 bytes, the
// size class both sit in: every stream and every result is one allocation
// of it, and the next class is 128 bytes. The benchmark's stream_chunks row
// allocates 160 bytes per op, the stream among them, under a 2% bound on
// alloc_bytes_per_op, which the next class's 16 more bytes per op break.
func TestResultSizes(t *testing.T) {
	if n := unsafe.Sizeof(Stream{}); n > 112 {
		t.Errorf("Stream is %d bytes, want <= 112", n)
	}
	if n := unsafe.Sizeof(ScanResult{}); n > 112 {
		t.Errorf("ScanResult is %d bytes, want <= 112", n)
	}
}
