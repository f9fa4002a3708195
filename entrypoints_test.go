package sunder

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/regex"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// cell is one combination of the options that must not change what a scan
// finds: the backend, the literal prefilter and certified minimization.
type cell struct {
	backend   string
	prefilter PrefilterMode
	minimize  bool
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s", c.backend, onOff(c.prefilter == PrefilterOn), onOff(c.minimize))
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// allCells is every cell, nfa/off/off (the reference) first.
var allCells = func() []cell {
	var cells []cell
	for _, backend := range []string{"nfa", "dfa", "auto"} {
		for _, minimize := range []bool{false, true} {
			for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
				cells = append(cells, cell{backend, pre, minimize})
			}
		}
	}
	return cells
}()

// conformanceCase is one rule set and input of the conformance harness.
type conformanceCase struct {
	name string
	nfa  *automata.Automaton
	// patterns is the crafted rule sets' source: their engines come from
	// Compile, and a CompileCached hit is checked too. A workload's come
	// from CompileAutomaton.
	patterns []Pattern
	input    []byte
	opts     func(*Options)
	cells    []cell
}

// compile builds c's engine for cell cl.
func (c conformanceCase) compile(t *testing.T, cl cell) *Engine {
	t.Helper()
	opts := c.options(cl)
	var eng *Engine
	var err error
	if c.patterns != nil {
		eng, err = Compile(c.patterns, opts)
	} else {
		eng, err = CompileAutomaton(c.nfa, opts)
	}
	if err != nil {
		t.Fatalf("%s: %v", cl, err)
	}
	return eng
}

func (c conformanceCase) options(cl cell) Options {
	opts := DefaultOptions()
	opts.Backend, opts.Prefilter, opts.Minimize = cl.backend, cl.prefilter, cl.minimize
	if c.opts != nil {
		c.opts(&opts)
	}
	return opts
}

// craftedCases is the harness's crafted rule sets, each on an odd-length
// input that plants its matches in filler text.
func craftedCases(t *testing.T) []conformanceCase {
	filler := bytes.Repeat([]byte("the quick brown fox 0 jumps 12 over; "), 64)
	plant := func(frags ...string) []byte {
		in := append([]byte(nil), filler...)
		for i, f := range frags {
			copy(in[(2*i+1)*len(in)/(2*len(frags)+1):], f)
		}
		return in
	}
	// spread plants n copies of frag evenly over in.
	spread := func(in []byte, frag string, n int) []byte {
		for i := 0; i < n; i++ {
			copy(in[i*len(in)/n:], frag)
		}
		return in
	}
	cases := []conformanceCase{
		{name: "anchored", patterns: []Pattern{{Expr: `^GET /a`, Code: 1}, {Expr: `bc+d`, Code: 2}},
			input: append([]byte("GET /a"), plant("GET /a", "bccd", "bcd")...)},
		{name: "dotstar", patterns: []Pattern{{Expr: `ab.*yz`, Code: 3}, {Expr: `needle`, Code: 4}},
			input: plant("ab", "needle", "yz", "yz")},
		{name: "bounded-repeat", patterns: []Pattern{{Expr: `ab{2,4}c`, Code: 5}, {Expr: `[0-9]{3}`, Code: 6}},
			input: plant("abbc", "abbbbbc", "2024", "abbbbc")},
		{name: "fold", patterns: []Pattern{{Expr: `(?i)select`, Code: 7}, {Expr: `(?i)union`, Code: 8}},
			input: plant("SeLeCt", "UNION", "select")},
		// Odd length with the any-symbol position in the pad tail: the final
		// vector reports a phantom that counts in Reports but is no match.
		{name: "pad-tail", patterns: []Pattern{{Expr: `q.`, Code: 9}, {Expr: `qz`, Code: 10}},
			input: append(plant("qz", "q!"), "..q"...)},
		{name: "flushing", patterns: []Pattern{{Expr: `ZQ`, Code: 11}},
			input: spread(bytes.Repeat(filler, 2), strings.Repeat("ZQ", 20), 40),
			opts:  func(o *Options) { o.FIFO, o.MetadataBits = false, 200 }},
		// The same with the FIFO on: an entry wider than the drain's
		// bandwidth leaves a backlog at a window's end, which the skipped
		// cycles after it drain.
		{name: "draining", patterns: []Pattern{{Expr: `ZQ`, Code: 12}},
			input: spread(bytes.Repeat(filler, 2), strings.Repeat("ZQ", 20), 12),
			opts:  func(o *Options) { o.MetadataBits = 200 }},
	}
	for i := range cases {
		c := &cases[i]
		c.nfa, c.cells = compileSet(t, c.patterns), allCells
		if len(c.input)%2 == 0 {
			c.input = c.input[1:]
		}
	}
	return cases
}

// workloadCases is the workload corpus: the 19 workloads at DefaultScale on
// 6,000-byte inputs, plus EntityResolution at scale 0.05, whose 4,881
// device states a size cut-off on "auto" would send to the machine, each to
// run cells. It skips t under -short.
func workloadCases(t *testing.T, cells ...cell) []conformanceCase {
	if testing.Short() {
		t.Skip("19-workload corpus in long mode only")
	}
	var cases []conformanceCase
	add := func(name, label string, scale float64) {
		w, err := workload.Get(name, scale, 6000)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, conformanceCase{name: label, nfa: w.Automaton, input: w.Input, cells: cells})
	}
	for _, name := range workload.Names() {
		add(name, name, workload.DefaultScale)
	}
	add("EntityResolution", "EntityResolution@0.05", 0.05)
	return cases
}

// TestEntryPointsAgree is the conformance harness: for every rule set and
// option cell, Scan, ScanParallel, ScanBatch (both twice: the second pass
// takes the pooled runners back warm), Stream (five chunkings) and a Clone
// — and on the crafted rule sets a CompileCached hit — must all return the
// functional-simulator oracle's matches, in order, and Reports and
// ReportCycles, account for every device cycle as executed or skipped, and
// run on the substrate the engine compiled to: the lazy DFA for a "dfa"
// backend, the machine for "nfa". Every run on the machine must leave the
// report model where Scan leaves it (StallCycles, Flushes, PerPU), and a
// machine cell's Scan where the unfiltered machine Scan of the same
// Minimize does.
//
// Here the crafted rule sets run every cell. The "flushing" set makes the
// device checks non-vacuous: with the FIFO off and one wide entry per row,
// its dense rule flushes the regions several times, and its literal
// engages the prefilter. The workload corpus runs eight cells that cover
// every pair of option values, split over TestBackendDifferential,
// TestPrefilterDifferential and TestMinimizeDifferential by the option
// each turns against nfa/off/off.
func TestEntryPointsAgree(t *testing.T) {
	// The crafted sets reset the shared compile cache, so they run one at
	// a time.
	cases := craftedCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkCase(t, c) })
	}

	// The flushing rule set must flush on the machine, or its device
	// checks above are vacuous.
	flushing := cases[5]
	eng, err := Compile(flushing.patterns, Options{Rate: 4, MetadataBits: 200, Prefilter: PrefilterOn})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Scan(flushing.input); err != nil || res.Stats.Flushes < 3 || res.Stats.PrefilterWindows < 2 {
		t.Fatalf("flushing rule set: %d flushes in %d prefilter windows (err %v), want several of each",
			res.Stats.Flushes, res.Stats.PrefilterWindows, err)
	}
}

// TestBackendDifferential runs the conformance harness on the workload
// corpus in the unfiltered, unminimized cells of each backend: the
// machine, the lazy DFA (where the automaton determinizes) and auto's
// pick.
func TestBackendDifferential(t *testing.T) {
	checkWorkloads(t, workloadCases(t, cell{"nfa", PrefilterOff, false}, cell{"auto", PrefilterOff, false},
		cell{"dfa", PrefilterOff, false}))
}

// TestPrefilterDifferential runs the conformance harness on the workload
// corpus with the literal prefilter on, on both substrates.
func TestPrefilterDifferential(t *testing.T) {
	checkWorkloads(t, workloadCases(t, cell{"nfa", PrefilterOn, false}, cell{"dfa", PrefilterOn, false}))
}

// TestMinimizeDifferential runs the conformance harness on the workload
// corpus with certified minimization on: alone, and with the prefilter on
// the lazy DFA and under auto.
func TestMinimizeDifferential(t *testing.T) {
	checkWorkloads(t, workloadCases(t, cell{"nfa", PrefilterOff, true}, cell{"dfa", PrefilterOn, true},
		cell{"auto", PrefilterOn, true}))
}

// checkWorkloads checks the workload cases in parallel: they share nothing.
func checkWorkloads(t *testing.T, cases []conformanceCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkCase(t, c)
		})
	}
}

// TestPruneDifferential holds Minimize's prune and merge rounds to their
// accounting on every rule set of the harness: Info()'s PrunedStates plus
// MergedStates is exactly the device states the minimized engine lost
// against the unminimized one. Minimization runs before the backend and
// the prefilter are chosen, so the machine cells stand for every cell;
// the harness holds the minimized engines' scans.
func TestPruneDifferential(t *testing.T) {
	cases := craftedCases(t)
	if !testing.Short() {
		cases = append(cases, workloadCases(t)...)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := c.compile(t, cell{"nfa", PrefilterOff, false}).Info()
			info := c.compile(t, cell{"nfa", PrefilterOff, true}).Info()
			if got, lost := info.PrunedStates+info.MergedStates, base.DeviceStates-info.DeviceStates; got != lost {
				t.Errorf("%d pruned + merged states, %d device states lost", got, lost)
			}
		})
	}
}

// TestPruneOptionShrinksLevenshtein pins that Minimize's prune rounds
// actually remove states where dead states exist (the Levenshtein widgets
// carry subsumed insertion variants at rate 4).
func TestPruneOptionShrinksLevenshtein(t *testing.T) {
	w, err := workload.Get("Levenshtein", workload.DefaultScale, 2000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Minimize = true
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Info().PrunedStates == 0 {
		t.Fatal("expected pruned states on Levenshtein at rate 4, got 0")
	}
}

// TestSpanDifferential holds span tracing to the untraced scans on Snort,
// Levenshtein and RandomForest (Snort alone under -short).
func TestSpanDifferential(t *testing.T) {
	names := []string{"Snort", "Levenshtein", "RandomForest"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, err := workload.Get(name, workload.DefaultScale, 6000)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := CompileAutomaton(w.Automaton, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSpans(t, name, eng, w.Input)
	}
}

// checkCase runs every cell of c against the oracle.
func checkCase(t *testing.T, c conformanceCase) {
	want := oracleRun(t, c.nfa, c.input)
	if len(want.Matches) == 0 && c.patterns != nil {
		t.Fatal("oracle found no match")
	}
	engines := map[cell]*Engine{}
	engine := func(cl cell) *Engine {
		if engines[cl] == nil {
			engines[cl] = c.compile(t, cl)
		}
		return engines[cl]
	}
	scans := map[cell]*ScanResult{} // each checked cell's Scan
	for _, cl := range c.cells {
		// twin is the unfiltered machine cell of the same Minimize: its
		// automaton is cl's, so it tells whether a forced dfa compiles, and
		// its Scan is where a machine cell's must leave the report model.
		// The crafted sets all determinize; a workload need not.
		twin := cell{"nfa", PrefilterOff, cl.minimize}
		if cl.backend == "dfa" && !engine(twin).DFAStats().Supported {
			if c.patterns != nil {
				t.Fatalf("%s: forced dfa unsupported: %s", cl, engine(twin).DFAStats().Reason)
			}
			t.Logf("%s: forced dfa unsupported: %s", cl, engine(twin).DFAStats().Reason)
			continue
		}
		eng := engine(cl)
		if cl.minimize && eng.Info().SymbolClasses == 0 {
			t.Errorf("%s: no symbol-class count", cl)
		}
		ref := checkEntryPoints(t, c, cl, eng, want)
		scans[cl] = ref
		if cl.backend == "auto" && (eng.Info().Backend == "dfa") != eng.DFAStats().Supported {
			t.Errorf("%s: auto resolved to %q with the lazy DFA supported=%v", cl, eng.Info().Backend, eng.DFAStats().Supported)
		}
		if cl != twin && eng.Info().Backend != "dfa" {
			if scans[twin] == nil {
				u, err := engine(twin).Scan(c.input)
				if err != nil {
					t.Fatalf("%s: %v", twin, err)
				}
				scans[twin] = u
			}
			sameDevice(t, cl.String()+"/Scan vs unfiltered Scan", ref, scans[twin])
		}
	}
}

// compileSet compiles patterns to the byte automaton Compile starts from.
func compileSet(t *testing.T, patterns []Pattern) *automata.Automaton {
	t.Helper()
	ps := make([]regex.Pattern, len(patterns))
	for i, p := range patterns {
		ps[i] = regex.Pattern{Expr: p.Expr, Code: p.Code}
	}
	nfa, err := regex.CompileSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	return nfa
}

// oracleRun is the functional simulator's verdict at the device rate: the
// un-minimized rate-4 automaton stepped by funcsim, phantoms filtered, its
// matches sorted as a ScanResult's are.
func oracleRun(t *testing.T, nfa *automata.Automaton, input []byte) *ScanResult {
	t.Helper()
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	units := funcsim.BytesToUnits(input, 4)
	res := funcsim.RunUnits(ua, funcsim.PadUnits(units, 4))
	out := &ScanResult{Stats: Stats{
		KernelCycles: res.Cycles,
		Reports:      res.Reports,
		ReportCycles: res.ReportCycles,
	}}
	for _, ev := range res.Events {
		if ev.Unit < int64(len(units)) {
			out.Matches = append(out.Matches, Match{Position: ev.Unit / 2, Code: ev.Code})
		}
	}
	out.Matches = sortedMatches(out.Matches)
	return out
}

// agree is the one check of a run against want, the oracle's or an
// unfiltered scan's verdict on the same input: the same matches in the
// same order, the same Reports and ReportCycles, and executed plus skipped
// cycles that add up to want's kernel cycles — every cycle is either run
// or provably match-free.
func agree(t *testing.T, label string, want, got *ScanResult, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	if !slices.Equal(want.Matches, got.Matches) {
		t.Errorf("%s: %d matches differ in content or order from the %d wanted", label, len(got.Matches), len(want.Matches))
	}
	if got.Stats.Reports != want.Stats.Reports || got.Stats.ReportCycles != want.Stats.ReportCycles {
		t.Errorf("%s: reports %d/%d, want %d/%d", label,
			got.Stats.Reports, got.Stats.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
	}
	if n := got.Stats.KernelCycles + got.Stats.SkippedCycles; n != want.Stats.KernelCycles {
		t.Errorf("%s: kernel %d + skipped %d = %d cycles, want %d", label,
			got.Stats.KernelCycles, got.Stats.SkippedCycles, n, want.Stats.KernelCycles)
	}
}

// checkEntryPoints runs every entry point on eng, c's engine for cell cl,
// and returns its Scan.
func checkEntryPoints(t *testing.T, c conformanceCase, cl cell, eng *Engine, want *ScanResult) *ScanResult {
	t.Helper()
	label, input := cl.String(), c.input
	// onDFA is the substrate every call must run on.
	onDFA := eng.Info().Backend == "dfa"
	lookups := func(e *Engine) int64 { s := e.DFAStats(); return s.Hits + s.Misses + s.Fallbacks }
	// ran holds a call that executed cycles to eng's substrate: a run on
	// the lazy DFA looks up its transition cache or, once the cache has
	// thrashed, falls back from it; one on the machine does neither.
	ran := func(entry string, e *Engine, before int64, st Stats) {
		t.Helper()
		if st.KernelCycles > 0 && (lookups(e) > before) != onDFA {
			t.Errorf("%s/%s: ran on the wrong substrate (backend %s)", label, entry, eng.Info().Backend)
		}
	}
	before := lookups(eng)
	ref, err := eng.Scan(input)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// result holds a call to the oracle, and a run on the machine to
	// Scan's report model.
	result := func(entry string, res *ScanResult, err error) {
		t.Helper()
		agree(t, label+"/"+entry, want, res, err)
		if err == nil && !onDFA {
			sameDevice(t, label+"/"+entry, res, ref)
		}
	}
	result("Scan", ref, nil)
	ran("Scan", eng, before, ref.Stats)
	for _, pass := range []string{"cold", "warm"} {
		for _, w := range []int{1, 2, 3, 4, 8} {
			entry, before := fmt.Sprintf("ScanParallel/%s/w=%d", pass, w), lookups(eng)
			res, err := eng.ScanParallel(input, ScanOptions{Workers: w})
			result(entry, res, err)
			if err != nil {
				continue
			}
			ran(entry, eng, before, res.Stats)
			// Every share's windows count: cutting the spans can only
			// open a straddling window twice, never lose one.
			if res.Stats.PrefilterWindows < ref.Stats.PrefilterWindows {
				t.Errorf("%s/%s: %d prefilter windows, Scan opens %d", label, entry,
					res.Stats.PrefilterWindows, ref.Stats.PrefilterWindows)
			}
		}
		before := lookups(eng)
		batch, err := eng.ScanBatch([][]byte{input, input[:len(input)/2], input}, ScanOptions{Workers: 2})
		if err != nil {
			batch = []*ScanResult{nil, nil, nil}
		}
		result("ScanBatch[0]/"+pass, batch[0], err)
		result("ScanBatch[2]/"+pass, batch[2], err)
		if err == nil {
			ran("ScanBatch/"+pass, eng, before, batch[0].Stats)
		}
	}
	for _, chunk := range []int{1, 7, 13, 97, len(input)} {
		entry, before := fmt.Sprintf("Stream/chunk=%d", chunk), lookups(eng)
		got, stats := streamChunks(t, eng, input, chunk)
		agree(t, label+"/"+entry, want, &ScanResult{Matches: got, Stats: stats}, nil)
		if !onDFA && (stats.StallCycles != ref.Stats.StallCycles || stats.Flushes != ref.Stats.Flushes) {
			t.Errorf("%s/%s: StallCycles/Flushes %d/%d, Scan %d/%d", label, entry,
				stats.StallCycles, stats.Flushes, ref.Stats.StallCycles, ref.Stats.Flushes)
		}
		ran(entry, eng, before, stats)
	}
	// A Clone and, on the crafted sets, a CompileCached hit share eng's
	// compiled artifact but count their own lookups.
	scan := func(entry string, e *Engine) {
		t.Helper()
		before := lookups(e)
		res, err := e.Scan(input)
		result(entry, res, err)
		if err == nil {
			ran(entry, e, before, res.Stats)
		}
	}
	scan("Clone", eng.Clone())
	if c.patterns != nil {
		scan("CompileCached", compileCachedHit(t, label, c.patterns, c.options(cl)))
	}
	return ref
}

// compileCachedHit compiles patterns through an emptied compile cache and
// returns the second call's engine, which must be a cache hit.
func compileCachedHit(t *testing.T, label string, patterns []Pattern, opts Options) *Engine {
	t.Helper()
	ResetCompileCache()
	if _, hit, err := CompileCachedTraced(patterns, opts); err != nil || hit {
		t.Fatalf("%s: priming CompileCached: hit=%v err=%v", label, hit, err)
	}
	cached, hit, err := CompileCachedTraced(patterns, opts)
	if err != nil || !hit {
		t.Fatalf("%s: second CompileCached: hit=%v err=%v", label, hit, err)
	}
	return cached
}

// checkSpans runs Scan, ScanParallel and ScanBatch on eng under each span
// tracing mode and holds every result to the untraced one exactly: spans
// observe the serve and scheduling layers and must never reach into scan
// semantics. A rate-1 mode must record spans; none may drop any.
func checkSpans(t *testing.T, label string, eng *Engine, input []byte) {
	t.Helper()
	batch := [][]byte{input[:len(input)/2], input[len(input)/2:], input}
	scans := func() []*ScanResult {
		t.Helper()
		seq, err := eng.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		par, err := eng.ScanParallel(input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.ScanBatch(batch, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return append([]*ScanResult{seq, par}, res...)
	}
	base := scans()
	for _, mode := range []struct {
		label string
		opts  TelemetryOptions
	}{
		{"spans-all", TelemetryOptions{Spans: true, SpanSampleEvery: 1}},
		{"spans-sampled", TelemetryOptions{Spans: true, SpanSampleEvery: 4}},
		{"spans+trace", TelemetryOptions{Spans: true, SpanSampleEvery: 1, Trace: true}},
	} {
		tel := NewTelemetry(mode.opts)
		eng.SetTelemetry(tel)
		for i, res := range scans() {
			sameScan(t, fmt.Sprintf("%s/%s/run %d", label, mode.label, i), res, base[i])
		}
		// Sampling keeps a subset, possibly empty over few roots.
		buffered, dropped := tel.SpanStats()
		if mode.opts.SpanSampleEvery == 1 && buffered == 0 {
			t.Errorf("%s/%s: no spans recorded", label, mode.label)
		}
		if dropped != 0 {
			t.Errorf("%s/%s: %d spans dropped with default capacity", label, mode.label, dropped)
		}
		eng.SetTelemetry(nil)
	}
}

// sortedMatches returns a position-then-code sorted copy, the order a
// ScanResult's matches come in, for results built outside the façade.
func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Position != out[j].Position {
			return out[i].Position < out[j].Position
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// fuzzSets is the conformance fuzzers' panel of rule sets.
var fuzzSets = [][]Pattern{
	{{Expr: `ab+c`, Code: 1}, {Expr: `zz`, Code: 2}},
	{{Expr: `GET /[a-z]+`, Code: 3}, {Expr: `needle`, Code: 4}},
	{{Expr: `(ab|a.)c`, Code: 5}},
	{{Expr: `a.*b`, Code: 6}, {Expr: `[0-9]{3}`, Code: 7}},
}

// fuzzEngines compiles every cell of each rule set of the panel, once per
// fuzzer: their runners and lazy-DFA caches stay warm across inputs.
func fuzzEngines(f *testing.F) []map[cell]*Engine {
	engines := make([]map[cell]*Engine, len(fuzzSets))
	for i, ps := range fuzzSets {
		engines[i] = map[cell]*Engine{}
		for _, c := range allCells {
			eng, err := Compile(ps, conformanceCase{}.options(c))
			if err != nil {
				f.Fatalf("%v %s: %v", ps, c, err)
			}
			engines[i][c] = eng
		}
	}
	return engines
}

// FuzzDFA is TestEntryPointsAgree's fuzz twin on the batch paths: on a
// rule set drawn from the panel and an input of at most 1 KiB, every
// cell's Scan and ScanParallel — the lazy DFA's and auto's among them —
// must agree with the unfiltered, unminimized engine on the machine.
func FuzzDFA(f *testing.F) {
	engines := fuzzEngines(f)
	f.Add(uint8(0), []byte("xabbczzx"))
	f.Add(uint8(1), []byte("GET /admin needle"))
	f.Add(uint8(2), []byte("axc abc"))
	f.Add(uint8(3), []byte("a123b"))
	f.Fuzz(func(t *testing.T, set uint8, input []byte) {
		if len(input) > 1024 {
			t.Skip("cap work per case")
		}
		engs := engines[int(set)%len(engines)]
		want, err := engs[allCells[0]].Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range allCells[1:] {
			res, err := engs[c].Scan(input)
			agree(t, c.String()+"/Scan", want, res, err)
			res, err = engs[c].ScanParallel(input, ScanOptions{})
			agree(t, c.String()+"/ScanParallel", want, res, err)
		}
	})
}

// FuzzStream is its twin on the streaming path: mode draws the cell (bit
// 0: the lazy DFA, else the machine; bit 1: the prefilter; bit 2:
// Minimize; bit 3: auto in place of either backend), the rule set (bits 4
// and 5) and, with bit 6, a freshly compiled engine whose runner and
// lazy-DFA cache start cold in place of the panel's warm one. A Stream fed
// in chunks of 1 to 63 bytes must agree with the unfiltered, unminimized
// engine's Scan on the machine.
func FuzzStream(f *testing.F) {
	engines := fuzzEngines(f)
	f.Add("xabbczzx", uint8(3), uint8(0))
	f.Add(strings.Repeat("abz", 40), uint8(1), uint8(3))
	f.Add("", uint8(7), uint8(2))
	f.Add("xabbczzx", uint8(3), uint8(0x41))
	f.Fuzz(func(t *testing.T, input string, chunk, mode uint8) {
		if len(input) > 512 {
			t.Skip("cap work per case")
		}
		c := cell{backend: []string{"nfa", "dfa"}[mode&1], minimize: mode&4 != 0}
		if mode&2 != 0 {
			c.prefilter = PrefilterOn
		}
		if mode&8 != 0 {
			c.backend = "auto"
		}
		set := int(mode>>4) % len(fuzzSets)
		want, err := engines[set][allCells[0]].Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		eng := engines[set][c]
		if mode&0x40 != 0 {
			if eng, err = Compile(fuzzSets[set], conformanceCase{}.options(c)); err != nil {
				t.Fatal(err)
			}
		}
		n := int(chunk%63) + 1
		got, stats := streamChunks(t, eng, []byte(input), n)
		agree(t, fmt.Sprintf("%s/Stream/chunk=%d", c, n), want, &ScanResult{Matches: got, Stats: stats}, nil)
	})
}
