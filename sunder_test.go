package sunder

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompileAndScan(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: `abc`, Code: 1},
		{Expr: `b[cd]e`, Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan([]byte("xxabcxbdexx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %+v", res.Matches)
	}
	if res.Matches[0].Code != 1 || res.Matches[0].Position != 4 {
		t.Errorf("first match = %+v", res.Matches[0])
	}
	if res.Matches[1].Code != 2 || res.Matches[1].Position != 8 {
		t.Errorf("second match = %+v", res.Matches[1])
	}
	if res.Stats.Reports != 2 || res.Stats.Overhead() != 1.0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestScanIsRepeatable(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: `ab`, Code: 9}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := eng.Scan([]byte("abab"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 2 {
			t.Fatalf("run %d: matches = %+v", i, res.Matches)
		}
	}
}

func TestAllRates(t *testing.T) {
	for _, rate := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.Rate = rate
		eng, err := Compile([]Pattern{{Expr: `hello`, Code: 1}}, opts)
		if err != nil {
			t.Fatalf("rate %d: %v", rate, err)
		}
		res, err := eng.Scan([]byte("say hello twice, hello"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 2 {
			t.Errorf("rate %d: matches = %+v", rate, res.Matches)
		}
		if eng.Info().Rate != rate {
			t.Errorf("Info rate = %d", eng.Info().Rate)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile([]Pattern{{Expr: `(`, Code: 1}}, DefaultOptions()); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := Compile(nil, DefaultOptions()); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := CompileANML(strings.NewReader("<not-anml/>"), DefaultOptions()); err == nil {
		t.Error("bad ANML accepted")
	}
	// A single connected pattern that cannot fit a cluster must be
	// rejected with a device-fit error. (Striding splits an unanchored
	// chain into two disjoint alignment tracks, so the chain must exceed
	// two clusters' worth of states to be genuinely unmappable.)
	long := strings.Repeat("abcdefghijklmnopqrstuvwxyz", 96)
	if _, err := Compile([]Pattern{{Expr: long, Code: 1}}, DefaultOptions()); err == nil {
		t.Error("oversized rule set accepted")
	}
	// A nested bounded repeat is the same failure and must say so: the
	// error names the component's size, not a negative column budget
	// ("need >= 1, <= -256").
	_, err := Compile([]Pattern{{Expr: `(a{64}){64}`, Code: 1}}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "component with 2048 states exceeds cluster capacity 1024") ||
		regexp.MustCompile(`-\d`).MatchString(err.Error()) {
		t.Errorf("nested bounded repeat: %v", err)
	}
	// Zero-value options default the rate.
	eng, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Info().Rate != 4 {
		t.Errorf("default rate = %d", eng.Info().Rate)
	}
}

// TestCompileRefusesUnknownBackend: Options.Backend accepts "", "auto",
// "nfa" and "dfa" only, spelled exactly — "parallel" among the refused
// names: ScanParallel, not a backend, shards — and a forced "dfa" the
// configuration cannot determinize (Rate 1) fails the compile too.
func TestCompileRefusesUnknownBackend(t *testing.T) {
	for _, backend := range []string{"", "auto", "nfa", "dfa"} {
		if _, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, Options{Backend: backend}); err != nil {
			t.Errorf("Compile with Backend %q: %v", backend, err)
		}
	}
	for _, backend := range []string{"bogus", "parallel", "NFA", "hybrid", "off", "auto ", "lazy-dfa"} {
		_, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, Options{Backend: backend})
		if err == nil || !strings.Contains(err.Error(), "unknown Backend") {
			t.Errorf("Compile with Backend %q: %v, want an unknown-backend error", backend, err)
		}
	}
	_, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, Options{Rate: 1, Backend: "dfa"})
	if err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("Compile with Rate 1 and Backend \"dfa\": %v, want an unsupported-backend error", err)
	}
}

func TestStatsOverheadZero(t *testing.T) {
	if (Stats{}).Overhead() != 1.0 {
		t.Error("zero-cycle overhead not 1")
	}
}

func TestCompileANML(t *testing.T) {
	src := `<automata-network id="n">
  <state-transition-element id="q0" symbol-set="[ab]" start="all-input">
    <activate-on-match element="q1"/>
  </state-transition-element>
  <state-transition-element id="q1" symbol-set="[c]">
    <report-on-match reportcode="7"/>
  </state-transition-element>
</automata-network>`
	eng, err := CompileANML(strings.NewReader(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan([]byte("xacxbc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0].Code != 7 {
		t.Errorf("matches = %+v", res.Matches)
	}
}

func TestSummarize(t *testing.T) {
	opts := DefaultOptions()
	opts.FIFO = false // summaries read the region; keep the host out
	eng, err := Compile([]Pattern{
		{Expr: `aa`, Code: 1},
		{Expr: `zz`, Code: 2},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Summarize([]byte("xaax"))
	if err != nil {
		t.Fatal(err)
	}
	if !got[1] || got[2] {
		t.Errorf("summary = %v", got)
	}
}

// TestModelReadersAgreeAcrossBackends: Summarize and ReadReports read the
// report region their own scan wrote, on either substrate: the lazy DFA
// steps the machine's plan and reports the same states, so a report model
// fed by it holds what the machine's holds — prefiltered or not, and with
// nothing left over from an earlier call when the next one matches
// nothing.
func TestModelReadersAgreeAcrossBackends(t *testing.T) {
	patterns := []Pattern{{Expr: `aa`, Code: 1}, {Expr: `zz`, Code: 2}}
	input, quiet := []byte("xaaxzz"), []byte("xyxyxy")
	for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
		var want []ReportRecord
		for _, backend := range []string{"nfa", "dfa", "auto"} {
			opts := DefaultOptions()
			opts.FIFO, opts.Backend, opts.Prefilter = false, backend, pre
			eng, err := Compile(patterns, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/prefilter=%v", backend, pre)
			got, err := eng.Summarize(input)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, map[int32]bool{1: true, 2: true}) {
				t.Errorf("%s: Summarize = %v, want rules 1 and 2", label, got)
			}
			recs, err := eng.ReadReports(input)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = recs
			}
			if len(recs) != 2 || !reflect.DeepEqual(recs, want) {
				t.Errorf("%s: ReadReports = %+v, want two records equal to nfa's %+v", label, recs, want)
			}
			if got, err := eng.Summarize(quiet); err != nil || len(got) != 0 {
				t.Errorf("%s: Summarize of a match-free input = %v, %v; want nothing", label, got, err)
			}
			if recs, err := eng.ReadReports(quiet); err != nil || len(recs) != 0 {
				t.Errorf("%s: ReadReports of a match-free input = %+v, %v; want nothing", label, recs, err)
			}
		}
	}
}

// TestDFAStatsSkipped: a lazy-DFA run that sits in one looping state skips
// its cycles on the state's escape table, and DFAStats counts them as a part
// of Hits, on Scan and on a Stream fed in small writes alike.
func TestDFAStatsSkipped(t *testing.T) {
	opts := DefaultOptions()
	opts.Backend = "dfa"
	eng, err := Compile([]Pattern{{Expr: `needle`, Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("hay stack ", 400) + "needle")
	res, err := eng.Scan(input)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("Scan = %+v, %v; want one match", res, err)
	}
	st := eng.DFAStats()
	if st.Skipped <= 0 || st.Skipped > st.Hits {
		t.Fatalf("after Scan: %+v; want 0 < Skipped <= Hits", st)
	}
	s, err := eng.NewStream(func(Match) {})
	if err != nil {
		t.Fatal(err)
	}
	for p := input; len(p) > 0; p = p[min(len(p), 97):] {
		if _, err := s.Write(p[:min(len(p), 97)]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if got := eng.DFAStats(); got.Skipped <= st.Skipped || got.Skipped-st.Skipped > got.Hits-st.Hits {
		t.Fatalf("Stream after Scan: %+v, then %+v; want more skipped cycles, within the new hits", st, got)
	}
}

func TestVerify(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: `a(b|c)+d`, Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"abcd", "xxacbcbd", "ad", "abd"} {
		if err := eng.Verify([]byte(in)); err != nil {
			t.Errorf("Verify(%q): %v", in, err)
		}
	}
}

func TestInfo(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: `abcd`, Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	info := eng.Info()
	if info.ByteStates != 4 || info.DeviceStates <= 0 || info.PUs != 1 {
		t.Errorf("info = %+v", info)
	}
	if info.RegionCapacity != 1536 {
		t.Errorf("capacity = %d", info.RegionCapacity)
	}
}

func TestStreamMatchesScan(t *testing.T) {
	patterns := []Pattern{{Expr: `abc`, Code: 1}, {Expr: `cab`, Code: 2}}
	eng, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("zabcabzcabcz")
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}

	var got []Match
	st, err := eng.NewStream(func(m Match) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	// Feed in awkward chunk sizes, including splits inside matches.
	for i := 0; i < len(input); {
		n := 1 + i%3
		if i+n > len(input) {
			n = len(input) - i
		}
		if _, err := st.Write(input[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	st.Close()
	if len(got) != len(want.Matches) {
		t.Fatalf("stream matches %+v, scan matches %+v", got, want.Matches)
	}
	for i := range got {
		if got[i] != want.Matches[i] {
			t.Errorf("match %d: stream %+v vs scan %+v", i, got[i], want.Matches[i])
		}
	}
	if st.BytesIn() != int64(len(input)) {
		t.Errorf("BytesIn = %d", st.BytesIn())
	}
}

func TestStreamTailMatch(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	st, err := eng.NewStream(func(m Match) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("xab")) // 3 bytes = 6 nibbles; rate 4 leaves a tail
	stats := st.Close()
	if len(got) != 1 || got[0].Position != 2 {
		t.Errorf("tail match = %+v", got)
	}
	if stats.KernelCycles == 0 {
		t.Error("no cycles recorded")
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	eng, _ := Compile([]Pattern{{Expr: `ab`, Code: 1}}, DefaultOptions())
	st, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("xab"))
	first := st.Close()
	if n, err := st.Write([]byte("x")); err != ErrClosedStream || n != 0 {
		t.Errorf("write after close: n=%d err=%v, want 0, ErrClosedStream", n, err)
	}
	// Close is idempotent: repeated calls return the same statistics and
	// execute nothing further.
	if again := st.Close(); again != first {
		t.Errorf("second Close returned %+v, first %+v", again, first)
	}
	if st.BytesIn() != 3 {
		t.Errorf("BytesIn after rejected write = %d, want 3", st.BytesIn())
	}
}

func TestThroughputGbps(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full := eng.ThroughputGbps(1.0)
	// 16 bits/cycle at ~3.6 GHz ≈ 57.7 Gbit/s.
	if full < 55 || full > 60 {
		t.Errorf("ThroughputGbps(1) = %v", full)
	}
	if eng.ThroughputGbps(2.0) >= full {
		t.Error("overhead did not reduce throughput")
	}
	if eng.ThroughputGbps(0.5) != full {
		t.Error("overhead below 1 not clamped")
	}
	opts := DefaultOptions()
	opts.Rate = 1
	slow, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ThroughputGbps(1.0)*4 != full {
		t.Errorf("rate scaling wrong: %v vs %v", slow.ThroughputGbps(1.0), full)
	}
}

func TestReadReports(t *testing.T) {
	opts := DefaultOptions()
	opts.FIFO = false // leave entries resident in the region
	eng, err := Compile([]Pattern{{Expr: `ab`, Code: 5}, {Expr: `cd`, Code: 6}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan([]byte("abxxcdxxab"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := eng.ReadReports([]byte("abxxcdxxab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %+v", recs)
	}
	// Every scan match position must appear in some decoded record whose
	// codes include the match code (record positions are cycle-granular:
	// the last byte of the reporting cycle).
	for _, m := range res.Matches {
		found := false
		for _, r := range recs {
			if r.Position >= m.Position && r.Position <= m.Position+1 {
				for _, c := range r.Codes {
					if c == m.Code {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("match %+v not found in decoded records %+v", m, recs)
		}
	}
}

// Property: on random inputs, the engine agrees with its own reference
// check (functional simulator vs byte automaton vs machine).
func TestQuickEngineEquivalence(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: `ab*c`, Code: 1},
		{Expr: `cc`, Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		input := make([]byte, n)
		for i := range input {
			input[i] = byte("abcx"[rng.Intn(4)])
		}
		return eng.Verify(input) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
