package sunder

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sunder/internal/sched"
	"sunder/internal/workload"
)

// sameScan asserts what ScanParallel, ScanBatch and a clone promise to
// reproduce of Scan exactly: the match stream, order included, every Stats
// field — PrefilterWindows and SkippedCycles stay 0 unfiltered — and the
// per-PU rows.
func sameScan(t *testing.T, label string, got, want *ScanResult) {
	t.Helper()
	if len(got.Matches) != len(want.Matches) {
		t.Errorf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
		return
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Errorf("%s: match %d = %+v, want %+v", label, i, got.Matches[i], want.Matches[i])
			return
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: Stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	sameDevice(t, label, got, want)
}

// sameDevice asserts that two runs of one device's report stream agree on
// what the report model makes of it: StallCycles, Flushes and PerPU.
func sameDevice(t *testing.T, label string, got, want *ScanResult) {
	t.Helper()
	if got.Stats.StallCycles != want.Stats.StallCycles || got.Stats.Flushes != want.Stats.Flushes {
		t.Errorf("%s: StallCycles/Flushes %d/%d, want %d/%d", label,
			got.Stats.StallCycles, got.Stats.Flushes, want.Stats.StallCycles, want.Stats.Flushes)
	}
	if !slices.Equal(got.PerPU, want.PerPU) {
		t.Errorf("%s: PerPU differs", label)
	}
}

// genPatterns draws a small rule set from shard-friendly templates:
// literals, classes, bounded counts and an anchored rule — every shape
// whose dependence window is bounded (unbounded `.*` shapes are covered
// separately by the fallback test).
func genPatterns(rng *rand.Rand) []Pattern {
	alpha := "abcd"
	lit := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	pats := []Pattern{
		{Expr: lit(2 + rng.Intn(6)), Code: 1},
		{Expr: lit(1) + "[ab]" + lit(1) + "+", Code: 2},
		{Expr: lit(1) + "{1,3}" + lit(2), Code: 3},
	}
	if rng.Intn(2) == 0 {
		pats = append(pats, Pattern{Expr: "^" + lit(3), Code: 4})
	}
	return pats
}

// genInput builds a random input with pattern occurrences planted
// throughout — including dense periodic plants so that wherever the shard
// boundaries land, matches straddle them.
func genInput(rng *rand.Rand, pats []Pattern, n int) []byte {
	alpha := "abcdxyz"
	in := make([]byte, n)
	for i := range in {
		in[i] = alpha[rng.Intn(len(alpha))]
	}
	// Plant literal-ish fragments of each pattern at a short period.
	for _, p := range pats {
		frag := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'd' {
				return r
			}
			return -1
		}, p.Expr)
		if frag == "" {
			continue
		}
		period := 37 + rng.Intn(64)
		for off := rng.Intn(period); off+len(frag) < n; off += period {
			copy(in[off:], frag)
		}
	}
	return in
}

// parallelEngines compiles pats at rate once per substrate that supports
// it: ScanParallel cuts the input into shares on the machine and on the
// lazy DFA alike.
func parallelEngines(t *testing.T, pats []Pattern, rate int) map[string]*Engine {
	t.Helper()
	engs := make(map[string]*Engine)
	for _, backend := range substrates {
		if backend == "dfa" && rate == 1 {
			continue // the lazy DFA needs whole-byte cycles
		}
		opts := DefaultOptions()
		opts.Rate, opts.Backend = rate, backend
		eng, err := Compile(pats, opts)
		if err != nil {
			t.Fatalf("Compile(%v, %s): %v", pats, backend, err)
		}
		engs[backend] = eng
	}
	return engs
}

// TestScanParallelDifferential is the property-based harness: for random
// rule sets and random inputs, on both substrates at every rate (rate 1
// cuts on 2-cycle boundaries), ScanParallel ≡ Scan ≡ funcsim across worker
// counts 1..N and input sizes from empty to multi-share.
func TestScanParallelDifferential(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			pats := genPatterns(rng)
			sizes := []int{0, 1, 7, 100, 4096 + rng.Intn(4096)}
			inputs := make([][]byte, len(sizes))
			for i, n := range sizes {
				inputs[i] = genInput(rng, pats, n)
			}
			for _, rate := range []int{1, 2, 4} {
				engs := parallelEngines(t, pats, rate)
				for _, input := range inputs {
					// The architectural simulator itself is cross-checked
					// against the functional simulator and the byte automaton.
					if err := engs["nfa"].Verify(input); err != nil {
						t.Fatalf("rate=%d n=%d: funcsim divergence: %v", rate, len(input), err)
					}
					for backend, eng := range engs {
						want, err := eng.Scan(input)
						if err != nil {
							t.Fatal(err)
						}
						for workers := 1; workers <= 6; workers++ {
							got, err := eng.ScanParallel(input, ScanOptions{Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							sameScan(t, fmt.Sprintf("rate=%d %s pats=%v n=%d workers=%d", rate, backend, pats, len(input), workers), got, want)
						}
					}
				}
			}
		})
	}
}

// TestScanParallelBoundaryStraddle plants matches at every offset around
// the shard boundaries: a long literal repeated back to back, so wherever
// a boundary falls, an occurrence crosses it.
func TestScanParallelBoundaryStraddle(t *testing.T) {
	pat := "abcdabcaab"                      // 10 bytes, longer than the automaton's unit depth between boundaries
	input := bytes.Repeat([]byte(pat), 2000) // 20 KB: shares at default floor
	for backend, eng := range parallelEngines(t, []Pattern{{Expr: pat, Code: 7}}, 4) {
		want, err := eng.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) != 2000 {
			t.Fatalf("%s: sequential found %d matches, want 2000", backend, len(want.Matches))
		}
		for _, workers := range []int{2, 3, 4, 8} {
			got, err := eng.ScanParallel(input, ScanOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameScan(t, fmt.Sprintf("%s workers=%d", backend, workers), got, want)
		}
	}
}

// TestScanParallelAnchored covers start-of-data handling: the anchored
// rule must fire for the true input start only, never for a share's local
// cycle zero.
func TestScanParallelAnchored(t *testing.T) {
	input := bytes.Repeat([]byte("abca"), 6000)
	for backend, eng := range parallelEngines(t, []Pattern{{Expr: "^abca", Code: 1}, {Expr: "bcab", Code: 2}}, 4) {
		want, err := eng.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		anchored := 0
		for _, m := range want.Matches {
			if m.Code == 1 {
				anchored++
			}
		}
		if anchored != 1 {
			t.Fatalf("%s: sequential found %d anchored matches, want 1", backend, anchored)
		}
		got, err := eng.ScanParallel(input, ScanOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		sameScan(t, backend+" anchored", got, want)
	}
}

// TestScanParallelUnboundedFallback: `.*`-style rules cannot be cut; the
// parallel path must run one share and still agree with Scan.
func TestScanParallelUnboundedFallback(t *testing.T) {
	input := bytes.Repeat([]byte("abxxcdyy"), 4000)
	for backend, eng := range parallelEngines(t, []Pattern{{Expr: "ab.*cd", Code: 1}}, 4) {
		want, err := eng.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ScanParallel(input, ScanOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		sameScan(t, backend+" dotstar fallback", got, want)
	}
}

// TestScanParallelShardSpans: a parallel scan records one shard span per
// share under its parallel_run span — at least two for a DFA engine on
// Workers 2 over an input of twice the minimum share, and exactly one for
// an automaton whose unbounded dependence window forbids a cut — and each
// share's warm-up under its shard.
func TestScanParallelShardSpans(t *testing.T) {
	input := bytes.Repeat([]byte("abcabxxcdyy"), 200)
	for _, tc := range []struct {
		expr     string
		min, max int
	}{
		{"abca", 2, 2},
		{"ab.*cd", 1, 1},
	} {
		opts := DefaultOptions()
		opts.Backend = "dfa"
		eng, err := Compile([]Pattern{{Expr: tc.expr, Code: 1}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cycles := eng.geo.cycles(int64(len(input))); cycles < 2*sched.DefaultMinShardCycles {
			t.Fatalf("%s: input has %d cycles, want at least %d", tc.expr, cycles, 2*sched.DefaultMinShardCycles)
		}
		tel := NewTelemetry(TelemetryOptions{Spans: true, SpanSampleEvery: 1})
		eng.SetTelemetry(tel)
		if _, err := eng.ScanParallel(input, ScanOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, sp := range tel.Spans().Spans() {
			names[sp.Name]++
		}
		if names["parallel_run"] != 1 || names["shard"] < tc.min || names["shard"] > tc.max || names["warmup"] != names["shard"] {
			t.Errorf("%s: spans %v, want one parallel_run and %d–%d shards, each with a warmup", tc.expr, names, tc.min, tc.max)
		}
	}
}

// TestScanParallelDeviceTelemetry: on the machine, a parallel scan feeds an
// attached collector what the sequential scan feeds it — every counter,
// per-PU family and histogram of the metrics dump — at every worker count.
// The flushing engine makes the report-region instruments non-trivial.
func TestScanParallelDeviceTelemetry(t *testing.T) {
	eng, input := denseEngine(t)
	tel := NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(tel)
	defer eng.SetTelemetry(nil)
	metrics := func(scan func() (*ScanResult, error)) string {
		t.Helper()
		tel.Reset()
		if _, err := scan(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tel.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := metrics(func() (*ScanResult, error) { return eng.Scan(input) })
	if !strings.Contains(want, "pu_flushes_total") {
		t.Fatalf("sequential metrics carry no per-PU flushes:\n%s", want)
	}
	for workers := 1; workers <= 4; workers++ {
		got := metrics(func() (*ScanResult, error) { return eng.ScanParallel(input, ScanOptions{Workers: workers}) })
		if got != want {
			t.Errorf("workers=%d: metrics differ from the sequential scan's:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestScanBatchMatchesScan: every batch result equals its sequential scan.
func TestScanBatchMatchesScan(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: "abc", Code: 1},
		{Expr: "b[cd]d+", Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]byte, 24)
	for i := range inputs {
		inputs[i] = genInput(rng, []Pattern{{Expr: "abc"}, {Expr: "bcdd"}}, 200+rng.Intn(3000))
	}
	got, err := eng.ScanBatch(inputs, ScanOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("%d results, want %d", len(got), len(inputs))
	}
	for i, in := range inputs {
		want, err := eng.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		sameScan(t, fmt.Sprint("input ", i), got[i], want)
		// Independent whole scans reproduce the full device accounting.
		if got[i].Stats != want.Stats {
			t.Errorf("input %d: Stats = %+v, want %+v", i, got[i].Stats, want.Stats)
		}
	}
}

func TestEngineClone(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "abc", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("zzabczz")
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	clone := eng.Clone()
	got, err := clone.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	sameScan(t, "clone", got, want)
	if got.Stats != want.Stats {
		t.Errorf("clone Stats = %+v, want %+v", got.Stats, want.Stats)
	}
	// Streams on the original must not disturb the clone and vice versa.
	s1, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := clone.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(input); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	st1, st2 := s1.Close(), s2.Close()
	if st1.Reports != want.Stats.Reports {
		t.Errorf("stream on original: Reports %d, want %d", st1.Reports, want.Stats.Reports)
	}
	if st2.Reports != 1 {
		t.Errorf("stream on clone: Reports %d, want 1", st2.Reports)
	}
}

// TestScanBatchMatchOrder: the lazy DFA hands a cycle's reporting states
// over in an order its cache's history decides, and the reduction orders
// them, so every engine returns one match sequence — sorted by (Position,
// Code), the machine's. Snort at Rate 2 used to come out of pooled DFA
// runners in a different order from one engine to the next; twenty
// engines, compiled with options the lazy DFA does not read, must now agree
// with each other and with the machine.
func TestScanBatchMatchOrder(t *testing.T) {
	w := workload.MustGet("Snort", 0.02, 6000)
	in := w.Input
	batch := [][]byte{in[:2000], in[2000:], in}
	opts := Options{Rate: 2, Backend: "nfa"}
	nfa, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]Match
	for _, b := range batch {
		res, err := nfa.Scan(b)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(res.Matches, func(a, b Match) int {
			return cmp.Or(cmp.Compare(a.Position, b.Position), cmp.Compare(a.Code, b.Code))
		}) {
			t.Fatal("machine matches are not sorted by (Position, Code)")
		}
		want = append(want, res.Matches)
	}
	for i := range 20 {
		opts := Options{Rate: 2, Backend: "dfa", FIFO: i%2 == 0, SummarizeOnFull: i%4 >= 2}
		eng, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ScanBatch(batch, ScanOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := range batch {
			if !matchesEqual(got[j].Matches, want[j]) {
				t.Fatalf("engine %d input %d: match sequence differs from the machine's (%d vs %d matches)",
					i, j, len(got[j].Matches), len(want[j]))
			}
		}
	}
}
