package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func scrapeMetricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func scrapeMetricsJSON(t *testing.T, base string) MetricsJSON {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics JSON decode (NaN/Inf poisons encoding): %v", err)
	}
	return m
}

// TestServerMetricsZeroRequestGuards pins the division guards: scraped
// immediately after a PUT — the ruleset has served nothing — the
// pool-wait-share and per-backend ratio lines must render 0 in both the
// text and JSON formats, never NaN or Inf.
func TestServerMetricsZeroRequestGuards(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	putRuleset(t, ts.URL, "idle", RulesetRequest{Patterns: testRules})

	// Only the value token matters: histogram bucket labels legitimately
	// contain le="+Inf".
	text := scrapeMetricsText(t, ts.URL)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		v := fields[len(fields)-1]
		if strings.Contains(v, "NaN") || strings.Contains(v, "Inf") {
			t.Fatalf("text metrics line has non-finite value: %q", line)
		}
	}
	wantLines := []string{
		`server_pool_wait_share{ruleset="idle"} 0`,
		`server_backend_scan_share{backend="nfa"} 0`,
		`server_backend_scan_share{backend="dfa"} 0`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}

	m := scrapeMetricsJSON(t, ts.URL)
	rm, ok := m.Rulesets["idle"]
	if !ok {
		t.Fatal("ruleset missing from JSON metrics")
	}
	if rm.PoolWaitShare != 0 {
		t.Errorf("pool_wait_share = %v, want 0", rm.PoolWaitShare)
	}
	for name, b := range m.Backends {
		if b.Scans != 0 || b.Share != 0 {
			t.Errorf("backend %s = %+v, want zeros", name, b)
		}
	}
	if len(m.Backends) != len(scanBackends) {
		t.Errorf("backends map has %d entries, want %d", len(m.Backends), len(scanBackends))
	}
}

// TestServerBackendSelection wires options.backend end to end: an auto
// ruleset resolves (and reports) its backend, served scans land on the
// per-backend counters in both metrics formats, and an unsupported forced
// backend or an unknown one ("parallel" is not a backend: ?parallel=1
// shards a scan) fails the PUT with 422.
func TestServerBackendSelection(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2})
	info := putRuleset(t, ts.URL, "auto", RulesetRequest{
		Patterns: testRules,
		Options:  &OptionsJSON{Backend: "auto"},
	})
	if !strings.HasPrefix(info.Info.Backend, "dfa (auto:") {
		t.Fatalf("resolved backend = %q, want a dfa auto choice", info.Info.Backend)
	}

	input := testTraffic(4096)
	want := wantMatches(t, testRules, nil, input)
	got := scanRaw(t, ts.URL, "auto", input, false)
	sameMatches(t, "auto backend scan", got.Results[0].Matches, want)
	scanRaw(t, ts.URL, "auto", input, false)

	text := scrapeMetricsText(t, ts.URL)
	if !strings.Contains(text, `server_backend_scans_total{backend="dfa"} 2`+"\n") {
		t.Errorf("dfa scan counter missing:\n%s", text)
	}
	if !strings.Contains(text, `server_backend_scan_share{backend="dfa"} 1`+"\n") {
		t.Errorf("dfa scan share != 1:\n%s", text)
	}
	if !strings.Contains(text, `server_ruleset_backend_scans_total{ruleset="auto",backend="dfa"} 2`+"\n") {
		t.Errorf("per-ruleset backend attribution missing:\n%s", text)
	}

	m := scrapeMetricsJSON(t, ts.URL)
	if b := m.Backends["dfa"]; b.Scans != 2 || b.Share != 1 {
		t.Errorf("JSON dfa backend = %+v, want 2 scans, share 1", b)
	}
	if rm := m.Rulesets["auto"]; rm.Backend != "dfa" {
		t.Errorf("JSON ruleset backend = %q, want dfa", rm.Backend)
	}

	s.ResetRequestMetrics()
	m = scrapeMetricsJSON(t, ts.URL)
	if b := m.Backends["dfa"]; b.Scans != 0 || b.Share != 0 {
		t.Errorf("backend counters survived reset: %+v", b)
	}

	// Forced dfa on a configuration that cannot support it is a compile
	// error, surfaced as 422 like any other.
	req := RulesetRequest{
		Patterns: testRules,
		Options:  &OptionsJSON{Rate: 1, Backend: "dfa"},
	}
	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPut, ts.URL+"/rulesets/bad", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("forced-dfa PUT at rate 1: status %d (%s), want 422", resp.StatusCode, msg)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "unsupported") {
		t.Fatalf("error = %q, want backend-unsupported message", e.Error)
	}

	body, _ = json.Marshal(RulesetRequest{Patterns: testRules, Options: &OptionsJSON{Backend: "parallel"}})
	hr, _ = http.NewRequest(http.MethodPut, ts.URL+"/rulesets/parallel", bytes.NewReader(body))
	presp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if err := json.NewDecoder(presp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "unknown Backend") {
		t.Fatalf(`PUT with backend "parallel": status %d (%s), want 422 and an unknown-backend error`, presp.StatusCode, e.Error)
	}
}
