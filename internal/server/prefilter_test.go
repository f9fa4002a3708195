package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// prefilterRules all carry extractable required literals, so a ruleset
// compiled with the prefilter option engages a real scanner.
var prefilterRules = []PatternJSON{
	{Expr: `GET /admin`, Code: 100},
	{Expr: `/etc/passwd`, Code: 201},
}

// TestServerPrefilterEndToEnd proves the prefilter option round-trips the
// service: the PUT response carries the compiled strategy and literals,
// filtered scan results equal an unfiltered library scan, per-scan stats
// report the skipped cycles, and both /metrics views expose the aggregate
// prefilter counters with their documented Content-Types.
func TestServerPrefilterEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	opts := &OptionsJSON{Prefilter: true}
	info := putRuleset(t, ts.URL, "pf", RulesetRequest{Patterns: prefilterRules, Options: opts})
	if info.Info.PrefilterStrategy == "" || strings.HasPrefix(info.Info.PrefilterStrategy, "off") {
		t.Fatalf("ruleset info: prefilter not engaged: %+v", info.Info)
	}
	if len(info.Info.PrefilterLiterals) == 0 {
		t.Fatalf("ruleset info: no literals reported: %+v", info.Info)
	}

	input := testTraffic(4000)
	want := wantMatches(t, prefilterRules, nil, input)
	if len(want) == 0 {
		t.Fatal("vacuous: traffic produced no matches")
	}
	for _, parallel := range []bool{false, true} {
		got := scanRaw(t, ts.URL, "pf", input, parallel)
		sameMatches(t, "prefiltered scan", got.Results[0].Matches, want)
		st := got.Results[0].Stats
		if st.SkippedCycles == 0 || st.PrefilterWindows == 0 {
			t.Errorf("parallel=%v: stats carry no prefilter accounting: %+v", parallel, st)
		}
	}
	// A literal-free input exercises the full-skip fast path through the
	// same serving stack.
	quiet := scanRaw(t, ts.URL, "pf", []byte(strings.Repeat("benign noise\n", 200)), false)
	if n := len(quiet.Results[0].Matches); n != 0 {
		t.Fatalf("literal-free input produced %d matches", n)
	}
	if st := quiet.Results[0].Stats; st.KernelCycles != 0 || st.SkippedCycles == 0 {
		t.Errorf("literal-free input should be fully skipped: %+v", st)
	}

	// Text metrics: prefilter counters flow through the registry dump.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, counter := range []string{"prefilter_scans", "prefilter_hits", "prefilter_windows",
		"prefilter_scanned_cycles", "prefilter_skipped_cycles"} {
		if !strings.Contains(string(body), counter) {
			t.Errorf("/metrics text missing %s:\n%s", counter, body)
		}
	}

	// JSON metrics: the aggregated prefilter section.
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics?format=json Content-Type = %q", ct)
	}
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Prefilter == nil {
		t.Fatal("metrics JSON has no prefilter section after prefiltered scans")
	}
	if m.Prefilter.Scans < 3 || m.Prefilter.Hits == 0 || m.Prefilter.Windows == 0 {
		t.Errorf("prefilter metrics undercounted: %+v", m.Prefilter)
	}
	if m.Prefilter.ScannedCycles == 0 || m.Prefilter.SkippedCycles == 0 {
		t.Errorf("prefilter cycle split missing: %+v", m.Prefilter)
	}
}

// TestServerPrefilterBailouts: a scan of literal-dense traffic stops
// looking for literals at the first checkpoint, says so in its stats, and
// counts one prefilter_bailouts on both /metrics views; a literal-free scan
// counts none. An unfiltered response carries no prefilter field
// (TestServerPrefilterOffByDefault).
func TestServerPrefilterBailouts(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	putRuleset(t, ts.URL, "pf", RulesetRequest{Patterns: prefilterRules, Options: &OptionsJSON{Prefilter: true}})
	dense := []byte(strings.Repeat("GET /admin\r\n", 400))
	got := scanRaw(t, ts.URL, "pf", dense, false)
	want := wantMatches(t, prefilterRules, nil, dense)
	sameMatches(t, "bailing scan", got.Results[0].Matches, want)
	if st := got.Results[0].Stats; st.PrefilterStoppedAt != 1<<10 || st.PrefilterWindows != 1 || st.SkippedCycles != 0 {
		t.Errorf("dense traffic: %+v, want a stop at 1024 and one window", st)
	}
	scanRaw(t, ts.URL, "pf", []byte(strings.Repeat("benign noise\n", 200)), false)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "prefilter_bailouts 1\n") {
		t.Errorf("/metrics text does not count one bailout:\n%s", body)
	}
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Prefilter == nil || m.Prefilter.Scans != 2 || m.Prefilter.Bailouts != 1 {
		t.Errorf("metrics JSON prefilter section %+v, want 2 scans and 1 bailout", m.Prefilter)
	}
}

// TestServerPrefilterOffByDefault pins that rulesets without the option
// report no prefilter fields anywhere on the wire.
func TestServerPrefilterOffByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	info := putRuleset(t, ts.URL, "plain", RulesetRequest{Patterns: prefilterRules})
	if info.Info.PrefilterStrategy != "" || info.Info.PrefilterLiterals != nil {
		t.Fatalf("unfiltered ruleset leaked prefilter info: %+v", info.Info)
	}
	got := scanRaw(t, ts.URL, "plain", testTraffic(1000), false)
	if st := got.Results[0].Stats; st.SkippedCycles != 0 || st.PrefilterWindows != 0 || st.PrefilterStoppedAt != 0 {
		t.Errorf("unfiltered scan carries prefilter stats: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Prefilter != nil {
		t.Errorf("metrics JSON grew a prefilter section without prefiltered scans: %+v", m.Prefilter)
	}
}
