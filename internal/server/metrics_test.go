package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricsView serves GET /metrics+query straight from the route handler,
// past the middleware that counts requests, so two views taken of a
// quiescent server read the same instruments.
func metricsView(t *testing.T, s *Server, query string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics%s: status %d", query, rec.Code)
	}
	return rec.Body.String()
}

// flattenJSON decodes a JSON document into its leaves, keyed by the
// dotted path of object keys ("rulesets.plain.shed.capacity"); numbers
// keep their literal text.
func flattenJSON(t *testing.T, doc string) map[string]string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(strings.TrimPrefix(prefix+"."+k, "."), c)
			}
		case json.Number:
			out[prefix] = v.String()
		case string:
			out[prefix] = v
		default:
			t.Fatalf("JSON leaf %s has unexpected type %T", prefix, v)
		}
	}
	walk("", root)
	return out
}

// metricsTextLine matches one text line: a name, optional labels, a value.
var metricsTextLine = regexp.MustCompile(`^([a-z0-9_]+)(?:\{(.*)\})? (\S+)$`)

// textToJSON maps each text metric name compared against the JSON view to
// its JSON path; {label} stands for that label's value. The latency
// families are mapped by latencyFamilies.
var textToJSON = map[string]string{
	"server_requests_total":              "service.requests",
	"server_scans_total":                 "service.scans",
	"server_scan_bytes_total":            "service.scan_bytes",
	"server_matches_total":               "service.matches",
	"server_errors_total":                "service.errors",
	"server_active_streams":              "service.active_streams",
	"server_rulesets":                    "service.rulesets",
	"server_backend_scans_total":         "backends.{backend}.scans",
	"server_backend_scan_share":          "backends.{backend}.share",
	"server_minimized_rulesets":          "minimize.rulesets",
	"server_minimized_pruned_states":     "minimize.pruned_states",
	"server_minimized_merged_states":     "minimize.merged_states",
	"compile_cache_hits_total":           "compile_cache.hits",
	"compile_cache_misses_total":         "compile_cache.misses",
	"compile_cache_entries":              "compile_cache.entries",
	"compile_cache_hit_ns_total":         "compile_cache.hit_ns_total",
	"compile_cache_miss_ns_total":        "compile_cache.miss_ns_total",
	"server_pool_wait_share":             "rulesets.{ruleset}.pool_wait_share",
	"server_ruleset_backend_scans_total": "rulesets.{ruleset}.scans",
	"server_shed_total":                  "rulesets.{ruleset}.shed.{reason}",
	"server_spans_buffered":              "spans.buffered",
	"server_spans_dropped_total":         "spans.dropped",
	// The device counters' prefilter family, aggregated on the JSON view.
	"prefilter_scans":          "prefilter.scans",
	"prefilter_hits":           "prefilter.hits",
	"prefilter_windows":        "prefilter.windows",
	"prefilter_scanned_cycles": "prefilter.scanned_cycles",
	"prefilter_skipped_cycles": "prefilter.skipped_cycles",
	"prefilter_bailouts":       "prefilter.bailouts",
}

// latencyFamilies maps each latency summary's text name prefix to its JSON
// object; the statistic suffix names the field (_p50 → p50_ns, …), and
// _sum is held to mean_ns = sum / count.
var latencyFamilies = map[string]string{
	"server_compile_ns_":      "compile",
	"server_scan_latency_ns_": "rulesets.{ruleset}.latency",
	"server_pool_wait_ns_":    "rulesets.{ruleset}.pool_wait",
}

// jsonOnlyFields are the JSON leaves with no text line, as path patterns
// with * for a ruleset id.
var jsonOnlyFields = map[string]bool{
	"compile_cache.capacity": true,
	"rulesets.*.bytes":       true,
	"rulesets.*.matches":     true,
}

// TestMetricsTextMatchesJSON holds the two /metrics views of one quiescent
// server to each other: every server_*, compile_cache_* and prefilter_*
// text line equals its JSON field, latency statistics included, and every
// JSON field is printed by some text line unless it is listed as
// JSON-only. A field added to only one view fails here.
func TestMetricsTextMatchesJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, ScanTimeout: 250 * time.Millisecond, TraceSampleEvery: 1})
	putRuleset(t, ts.URL, "plain", RulesetRequest{Patterns: testRules, Options: &OptionsJSON{Backend: "nfa"}})
	putRuleset(t, ts.URL, "tuned", RulesetRequest{Patterns: prefilterRules,
		Options: &OptionsJSON{Backend: "auto", Minimize: true, Prefilter: true}})
	input := testTraffic(4000)
	scanRaw(t, ts.URL, "plain", input, false)
	scanRaw(t, ts.URL, "tuned", input, false)
	scanRaw(t, ts.URL, "tuned", input, true)
	streamInput(t, ts.URL, "tuned", input, 1)
	forceSheds(t, s, ts.URL, "plain")

	text := metricsView(t, s, "")
	fields := flattenJSON(t, metricsView(t, s, "?format=json"))
	for _, section := range []string{"minimize.rulesets", "prefilter.scans", "spans.buffered", "rulesets.plain.shed.deadline"} {
		if v := fields[section]; v == "" || v == "0" {
			t.Fatalf("vacuous: JSON %s = %q", section, v)
		}
	}
	used := map[string]bool{}
	equal := func(line, path, textValue string) {
		jsonValue, ok := fields[path]
		if !ok {
			t.Errorf("text line %q has no JSON field %s", line, path)
			return
		}
		used[path] = true
		tv, terr := strconv.ParseFloat(textValue, 64)
		jv, jerr := strconv.ParseFloat(jsonValue, 64)
		if terr != nil || jerr != nil || tv != jv {
			t.Errorf("text line %q, JSON %s = %s", line, path, jsonValue)
		}
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		sub := metricsTextLine.FindStringSubmatch(line)
		if sub == nil {
			t.Fatalf("malformed text line %q", line)
		}
		name, value := sub[1], sub[3]
		if !strings.HasPrefix(name, "server_") && !strings.HasPrefix(name, "compile_cache_") && !strings.HasPrefix(name, "prefilter_") {
			continue
		}
		checked++
		labels := map[string]string{}
		if sub[2] != "" {
			for _, kv := range strings.Split(sub[2], ",") {
				k, v, _ := strings.Cut(kv, "=")
				labels[k] = strings.Trim(v, `"`)
			}
		}
		fill := func(path string) string {
			for k, v := range labels {
				path = strings.ReplaceAll(path, "{"+k+"}", v)
			}
			return path
		}
		if path, ok := textToJSON[name]; ok {
			equal(line, fill(path), value)
			if b, ok := labels["backend"]; ok && labels["ruleset"] != "" {
				path := fill("rulesets.{ruleset}.backend")
				used[path] = true
				if fields[path] != b {
					t.Errorf("text line %q, JSON %s = %q", line, path, fields[path])
				}
			}
			continue
		}
		matched := false
		for prefix, obj := range latencyFamilies {
			stat, ok := strings.CutPrefix(name, prefix)
			if !ok {
				continue
			}
			matched = true
			obj = fill(obj)
			switch stat {
			case "p50", "p99", "p999", "max":
				equal(line, obj+"."+stat+"_ns", value)
			case "count":
				equal(line, obj+".count", value)
			case "sum":
				sum, _ := strconv.ParseInt(value, 10, 64)
				count, _ := strconv.ParseInt(fields[obj+".count"], 10, 64)
				mean := int64(0)
				if count > 0 {
					mean = sum / count
				}
				equal(line, obj+".mean_ns", strconv.FormatInt(mean, 10))
			default:
				t.Errorf("text line %q: unknown latency statistic %q", line, stat)
			}
		}
		if !matched {
			t.Errorf("text line %q has no JSON counterpart", line)
		}
	}
	if checked < 40 {
		t.Fatalf("vacuous: only %d text lines compared", checked)
	}
	var unprinted []string
	for path := range fields {
		pattern := path
		if rest, ok := strings.CutPrefix(path, "rulesets."); ok {
			_, field, _ := strings.Cut(rest, ".")
			pattern = "rulesets.*." + field
		}
		if !used[path] && !jsonOnlyFields[pattern] {
			unprinted = append(unprinted, path)
		}
	}
	sort.Strings(unprinted)
	for _, path := range unprinted {
		t.Errorf("JSON field %s = %s has no text line", path, fields[path])
	}
}

// TestMetricsJSONScrapeLeavesTextAlone: the JSON view reads the device
// counters it reports and registers none, so the text scrapes on either
// side of a JSON scrape are equal (a JSON scrape once added a
// `prefilter_scans 0` line to every later text scrape).
func TestMetricsJSONScrapeLeavesTextAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	scanRaw(t, ts.URL, "nids", testTraffic(2000), false)
	before := metricsView(t, s, "")
	metricsView(t, s, "?format=json")
	if after := metricsView(t, s, ""); after != before {
		t.Errorf("a JSON scrape changed the text view:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestResetRequestMetrics: the isolation hook the benchmark's traced load
// phase calls zeroes every request-scoped field of the snapshot — each
// one nonzero before it — keeps the rest, and the rulesets keep serving.
func TestResetRequestMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, ScanTimeout: 250 * time.Millisecond,
		TraceSampleEvery: 1, TraceCapacity: 4})
	putRuleset(t, ts.URL, "plain", RulesetRequest{Patterns: testRules, Options: &OptionsJSON{Backend: "nfa"}})
	putRuleset(t, ts.URL, "tuned", RulesetRequest{Patterns: testRules, Options: &OptionsJSON{Backend: "dfa", Minimize: true}})
	input := testTraffic(2000)
	for _, id := range []string{"plain", "tuned"} {
		scanRaw(t, ts.URL, id, input, false)
		forceSheds(t, s, ts.URL, id)
		// Drain is one-way, so the draining shed is counted directly.
		rs, _ := s.lookup(id)
		rs.shedDraining.Inc()
	}
	// Everything the reset keeps: the resident rulesets, the stream gauge,
	// the minimization aggregate of their compiles, the process-wide
	// compile cache, and the resolved backends.
	kept := regexp.MustCompile(`^(service\.(rulesets|active_streams)|compile_cache\..*|minimize\..*|rulesets\.[^.]+\.backend)$`)

	before := flattenJSON(t, metricsView(t, s, "?format=json"))
	if before["minimize.rulesets"] != "1" || before["service.rulesets"] != "2" {
		t.Fatalf("vacuous: minimize.rulesets = %s, service.rulesets = %s", before["minimize.rulesets"], before["service.rulesets"])
	}
	s.ResetRequestMetrics()
	after := flattenJSON(t, metricsView(t, s, "?format=json"))
	if len(after) != len(before) {
		t.Errorf("reset changed the snapshot's shape: %d fields, was %d", len(after), len(before))
	}
	for path, was := range before {
		now := after[path]
		switch {
		case kept.MatchString(path):
			if now != was {
				t.Errorf("%s = %s after reset, want it kept at %s", path, now, was)
			}
		case was == "0":
			t.Errorf("vacuous: request-scoped %s was 0 before the reset", path)
		case now != "0":
			t.Errorf("%s = %s after reset, want 0", path, now)
		}
	}

	// Still serving: the next scan repopulates.
	scanRaw(t, ts.URL, "plain", input, false)
	final := getMetricsJSON(t, ts.URL)
	if final.Rulesets["plain"].Latency.Count != 1 {
		t.Errorf("post-reset latency count = %d, want 1", final.Rulesets["plain"].Latency.Count)
	}
}
