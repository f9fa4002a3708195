package sunder

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sunder/internal/funcsim"
	"sunder/internal/regex"
	"sunder/internal/transform"
)

// TestEntryPointsAgree runs option *combinations* through every entry
// point: for each small rule set × Backend × Prefilter × Minimize, Scan,
// ScanParallel, ScanBatch (both twice: the second pass takes the lazy DFA's
// pooled runners back warm), Stream (three chunkings), a Clone and a
// CompileCached hit must all return the functional-simulator oracle's
// matches and Reports/ReportCycles, account for every device cycle, and
// have run on the substrate the engine compiled to — the lazy DFA for a
// "dfa" backend, prefiltered or not, the machine for "nfa". Matches are sorted by (Position,
// Code) on every substrate, so every comparison includes their order, and
// every run on the machine must leave the report model where Scan leaves
// it (StallCycles, Flushes, PerPU) — a prefiltered Scan where the
// unfiltered one does. The "flushing" rule set makes that
// non-vacuous: with the FIFO off and one wide entry per row, its dense rule
// flushes the regions several times, and its literal engages the
// prefilter.
func TestEntryPointsAgree(t *testing.T) {
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
	ruleSets := []struct {
		name     string
		patterns []Pattern
		input    []byte
		opts     func(*Options)
	}{
		{"anchored", []Pattern{{Expr: `^GET /a`, Code: 1}, {Expr: `bc+d`, Code: 2}},
			append([]byte("GET /a"), plant("GET /a", "bccd", "bcd")...), nil},
		{"dotstar", []Pattern{{Expr: `ab.*yz`, Code: 3}, {Expr: `needle`, Code: 4}},
			plant("ab", "needle", "yz", "yz"), nil},
		{"bounded-repeat", []Pattern{{Expr: `ab{2,4}c`, Code: 5}, {Expr: `[0-9]{3}`, Code: 6}},
			plant("abbc", "abbbbbc", "2024", "abbbbc"), nil},
		{"fold", []Pattern{{Expr: `(?i)select`, Code: 7}, {Expr: `(?i)union`, Code: 8}},
			plant("SeLeCt", "UNION", "select"), nil},
		// Odd length with the any-symbol position in the pad tail: the final
		// vector reports a phantom that counts in Reports but is no match.
		{"pad-tail", []Pattern{{Expr: `q.`, Code: 9}, {Expr: `qz`, Code: 10}},
			append(plant("qz", "q!"), "..q"...), nil},
		{"flushing", []Pattern{{Expr: `ZQ`, Code: 11}},
			spread(bytes.Repeat(filler, 2), strings.Repeat("ZQ", 20), 40),
			func(o *Options) { o.FIFO, o.MetadataBits = false, 200 }},
		// The same with the FIFO on: an entry wider than the drain's
		// bandwidth leaves a backlog at a window's end, which the skipped
		// cycles after it drain.
		{"draining", []Pattern{{Expr: `ZQ`, Code: 12}},
			spread(bytes.Repeat(filler, 2), strings.Repeat("ZQ", 20), 12),
			func(o *Options) { o.MetadataBits = 200 }},
	}
	for _, rs := range ruleSets {
		if len(rs.input)%2 == 0 {
			rs.input = rs.input[1:]
		}
		want := oracleRun(t, rs.patterns, rs.input)
		if len(want.Matches) == 0 {
			t.Fatalf("%s: oracle found no match", rs.name)
		}
		for _, backend := range []string{"nfa", "dfa", "auto"} {
			for _, minimize := range []bool{false, true} {
				var unfiltered *ScanResult
				for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
					opts := DefaultOptions()
					opts.Backend, opts.Prefilter, opts.Minimize = backend, pre, minimize
					if rs.opts != nil {
						rs.opts(&opts)
					}
					label := fmt.Sprintf("%s/%s/pre=%d/min=%v", rs.name, backend, pre, minimize)
					ref, onMachine := checkEntryPoints(t, label, rs.patterns, opts, rs.input, want)
					if !onMachine {
						continue
					}
					if unfiltered == nil {
						unfiltered = ref
					} else {
						sameDevice(t, label+"/Scan vs unfiltered Scan", ref, unfiltered)
					}
				}
			}
		}
	}
	// The flushing rule set must flush on the machine, or its device
	// checks above are vacuous.
	flushing := ruleSets[len(ruleSets)-2]
	eng, err := Compile(flushing.patterns, Options{Rate: 4, MetadataBits: 200, Prefilter: PrefilterOn})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Scan(flushing.input); err != nil || res.Stats.Flushes < 3 || res.Stats.PrefilterWindows < 2 {
		t.Fatalf("flushing rule set: %d flushes in %d prefilter windows (err %v), want several of each",
			res.Stats.Flushes, res.Stats.PrefilterWindows, err)
	}
}

// oracleRun is the functional simulator's verdict at the device rate: the
// un-minimized rate-4 automaton stepped by funcsim, phantoms filtered, its
// matches sorted as a ScanResult's are.
func oracleRun(t *testing.T, patterns []Pattern, input []byte) *ScanResult {
	t.Helper()
	ps := make([]regex.Pattern, len(patterns))
	for i, p := range patterns {
		ps[i] = regex.Pattern{Expr: p.Expr, Code: p.Code}
	}
	nfa, err := regex.CompileSet(ps)
	if err != nil {
		t.Fatal(err)
	}
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

// checkEntryPoints runs every entry point on one engine and returns its
// Scan and whether Scan ran on the machine.
func checkEntryPoints(t *testing.T, label string, patterns []Pattern, opts Options, input []byte, want *ScanResult) (*ScanResult, bool) {
	t.Helper()
	eng, err := Compile(patterns, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := eng.Scan(input)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// onDFA is the substrate every call must run on.
	onDFA := strings.HasPrefix(eng.Backend(), "dfa")
	// check holds a call to the oracle and to Scan.
	check := func(entry string, got []Match, st Stats, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s/%s: %v", label, entry, err)
			return
		}
		if !matchesEqual(ref.Matches, got) {
			t.Errorf("%s/%s: matches differ from Scan in content or order (%d vs %d)", label, entry, len(got), len(ref.Matches))
		}
		if !matchesEqual(want.Matches, got) {
			t.Errorf("%s/%s: %d matches, oracle has %d", label, entry, len(got), len(want.Matches))
		}
		if st.Reports != want.Stats.Reports || st.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("%s/%s: reports %d/%d, oracle %d/%d", label, entry,
				st.Reports, st.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
		}
		if got := st.KernelCycles + st.SkippedCycles; got != want.Stats.KernelCycles {
			t.Errorf("%s/%s: kernel+skipped = %d cycles, input has %d", label, entry, got, want.Stats.KernelCycles)
		}
	}
	// A result's substrate shows in its per-PU rows: the machine writes
	// report entries into its regions, the lazy DFA models none. A run on
	// the machine leaves the report model where Scan's does.
	result := func(entry string, res *ScanResult, err error) {
		t.Helper()
		if err != nil {
			res = &ScanResult{}
		}
		check(entry, res.Matches, res.Stats, err)
		if err == nil && !onDFA {
			sameDevice(t, label+"/"+entry, res, ref)
		}
		entries := int64(0)
		for _, pu := range res.PerPU {
			entries += pu.ReportEntries
		}
		if err == nil && (entries == 0) != onDFA {
			t.Errorf("%s/%s: ran on the wrong substrate (%d report entries, backend %s)", label, entry, entries, eng.Backend())
		}
	}
	result("Scan", ref, nil)
	for _, pass := range []string{"cold", "warm"} {
		for w := 1; w <= 4; w++ {
			res, err := eng.ScanParallel(input, ScanOptions{Workers: w})
			result(fmt.Sprintf("ScanParallel/%s/w=%d", pass, w), res, err)
		}
		batch, err := eng.ScanBatch([][]byte{input, input[:len(input)/2], input}, ScanOptions{Workers: 2})
		if err != nil {
			batch = []*ScanResult{nil, nil, nil}
		}
		result(fmt.Sprintf("ScanBatch[0]/%s", pass), batch[0], err)
		result(fmt.Sprintf("ScanBatch[2]/%s", pass), batch[2], err)
	}
	for _, chunk := range []int{1, 7, len(input)} {
		var got []Match
		lookups := eng.DFAStats()
		st, err := eng.NewStream(func(m Match) { got = append(got, m) })
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for off := 0; off < len(input) && err == nil; off += chunk {
			_, err = st.Write(input[off:min(off+chunk, len(input))])
		}
		stats := st.Close()
		if err == nil {
			err = st.Err()
		}
		check(fmt.Sprintf("Stream/chunk=%d", chunk), got, stats, err)
		if err == nil && !onDFA && (stats.StallCycles != ref.Stats.StallCycles || stats.Flushes != ref.Stats.Flushes) {
			t.Errorf("%s/Stream/chunk=%d: StallCycles/Flushes %d/%d, Scan %d/%d", label, chunk,
				stats.StallCycles, stats.Flushes, ref.Stats.StallCycles, ref.Stats.Flushes)
		}
		if after := eng.DFAStats(); (after.Hits+after.Misses > lookups.Hits+lookups.Misses) != onDFA {
			t.Errorf("%s/Stream/chunk=%d: ran on the wrong substrate (backend %s)", label, chunk, eng.Backend())
		}
	}
	res, err := eng.Clone().Scan(input)
	result("Clone", res, err)

	ResetCompileCache()
	if _, hit, err := CompileCachedTraced(patterns, opts); err != nil || hit {
		t.Fatalf("%s: priming CompileCached: hit=%v err=%v", label, hit, err)
	}
	cached, hit, err := CompileCachedTraced(patterns, opts)
	if err != nil || !hit {
		t.Fatalf("%s: second CompileCached: hit=%v err=%v", label, hit, err)
	}
	res, err = cached.Scan(input)
	result("CompileCached", res, err)
	return ref, !onDFA
}
