package sunder

import (
	"bytes"
	"testing"

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
	// left is the result (SPM matches on most bytes): nothing per cycle.
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
	for _, pin := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"scan/nfa", scan(compile("nfa", PrefilterOff)), 3},
		{"scan/dfa", scan(compile("dfa", PrefilterOff)), 2},
		{"scan/dfa-thrash", thrashScan(0), 16},
		{"scan/prefilter-skip", scan(compile("nfa", PrefilterOn)), 6},
		{"stream/dfa", stream(compile("dfa", PrefilterOff)), 3},
		{"stream/nfa", stream(compile("nfa", PrefilterOff)), 2},
		{"batch/dfa-warm", batch, 14},
	} {
		if got := testing.AllocsPerRun(10, pin.op); got > pin.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", pin.name, got, pin.max)
		} else {
			t.Logf("%s: %.1f allocs/op (ceiling %.0f)", pin.name, got, pin.max)
		}
	}
}

// TestRunnerReleasesMatches: the engine's persistent runners, and the
// pooled ones of the parallel entry points, hand a scan's matches to its
// result and keep no reference, so a large result is not pinned on the
// engine (or in the pool) until the next scan (it showed as live heap in
// the benchmark when it was).
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
		// A sync.Pool may drop what it is given (at random under the race
		// detector, or when the goroutine changes P between Put and Get), so
		// batches repeat until one's runner is found in it.
		var pooled *dfaRunner
		for try := 0; pooled == nil && try < 100; try++ {
			batch, err := eng.ScanBatch([][]byte{input}, ScanOptions{Workers: 1})
			if err != nil || len(batch[0].Matches) != 1024 {
				t.Fatalf("%s: batch: %v", backend, err)
			}
			pooled, _ = eng.dfaPool.Get().(*dfaRunner)
		}
		if (pooled != nil) != (backend == "dfa") {
			t.Errorf("%s: ScanBatch left a runner in the DFA pool: %v", backend, pooled != nil)
		} else if pooled != nil && pooled.matches != nil {
			t.Errorf("%s: pooled runner still references the batch result's matches", backend)
		}
	}
}
