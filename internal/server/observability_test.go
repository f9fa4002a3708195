package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// getMetricsJSON fetches and decodes GET /metrics?format=json.
func getMetricsJSON(t *testing.T, base string) MetricsJSON {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics json: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("metrics json Content-Type = %q, want application/json", ct)
	}
	var m MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsContentTypeAndSLO pins the /metrics contract both ways: the
// text view must declare text/plain with charset (a regression guard —
// browsers sniff unlabeled bodies), carry the per-ruleset latency
// quantile and shed lines, and the JSON view must expose the same
// population with ordered quantiles.
func TestMetricsContentTypeAndSLO(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	input := testTraffic(4000)
	for i := 0; i < 3; i++ {
		scanRaw(t, ts.URL, "nids", input, false)
	}
	streamInput(t, ts.URL, "nids", input, 1)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q, want text/plain; charset=utf-8", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		`server_scan_latency_ns_p50{ruleset="nids"}`,
		`server_scan_latency_ns_p999{ruleset="nids"}`,
		`server_scan_latency_ns_count{ruleset="nids"} 4`,
		`server_pool_wait_ns_p99{ruleset="nids"}`,
		`server_shed_total{ruleset="nids",reason="capacity"} 0`,
		`server_shed_total{ruleset="nids",reason="deadline"} 0`,
		`server_shed_total{ruleset="nids",reason="draining"} 0`,
		"compile_cache_hit_ns_total",
		"compile_cache_miss_ns_total",
		"server_compile_ns_count 1",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Errorf("metrics text missing %q:\n%s", metric, body)
		}
	}

	m := getMetricsJSON(t, ts.URL)
	rm, ok := m.Rulesets["nids"]
	if !ok {
		t.Fatalf("json metrics missing ruleset: %+v", m)
	}
	// 3 scans + 1 stream served; quantiles ordered and positive.
	if rm.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", rm.Latency.Count)
	}
	if rm.Latency.P50NS <= 0 || rm.Latency.P99NS < rm.Latency.P50NS ||
		rm.Latency.P999NS < rm.Latency.P99NS || rm.Latency.MaxNS < rm.Latency.P50NS {
		t.Errorf("latency quantiles malformed: %+v", rm.Latency)
	}
	if rm.PoolWait.Count != 4 {
		t.Errorf("pool wait count = %d, want 4", rm.PoolWait.Count)
	}
	if rm.PoolWaitShare < 0 || rm.PoolWaitShare > 1 {
		t.Errorf("pool wait share = %v, want [0,1]", rm.PoolWaitShare)
	}
	if m.Service.Scans != 4 || m.Service.Rulesets != 1 {
		t.Errorf("service counters: %+v", m.Service)
	}
	if m.CompileCache.Misses < 1 {
		t.Errorf("compile cache misses = %d, want >= 1", m.CompileCache.Misses)
	}
	if m.Compile.Count != 1 {
		t.Errorf("compile latency count = %d, want 1", m.Compile.Count)
	}
	// Tracing is off: no span stats in the document, and /trace is 404.
	if m.Spans != nil {
		t.Errorf("spans stats present without tracing: %+v", m.Spans)
	}
	tr, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("/trace without tracing: status %d, want 404", tr.StatusCode)
	}
}

// TestShedCountersByReason forces each shed path — engine held so a
// deadline expires (504), the waiter slot full so capacity sheds (503),
// and a drain rejecting new work — and checks each lands on its own
// counter.
func TestShedCountersByReason(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, ScanTimeout: 250 * time.Millisecond})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})

	// Occupy the only engine with a held-open stream.
	pr, pw := io.Pipe()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.Post(ts.URL+"/rulesets/nids/stream", "application/octet-stream", pr)
		if err != nil {
			t.Errorf("stream: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if _, err := pw.Write(testTraffic(1000)); err != nil {
		t.Fatal(err)
	}
	rs, _ := s.lookup("nids")
	deadline := time.Now().Add(5 * time.Second)
	for len(rs.pool.running) != cap(rs.pool.running) {
		if time.Now().After(deadline) {
			t.Fatal("stream never took the ruleset's one slot")
		}
		time.Sleep(time.Millisecond)
	}

	// One scan waits out its deadline (504 → deadline shed)...
	timeoutDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", strings.NewReader("abc"))
		if err != nil {
			timeoutDone <- -1
			return
		}
		resp.Body.Close()
		timeoutDone <- resp.StatusCode
	}()
	for len(rs.pool.tokens) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scan never started waiting")
		}
		time.Sleep(time.Millisecond)
	}
	// ...while the next is shed immediately (503 → capacity shed).
	resp, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capacity shed: status %d, want 503", resp.StatusCode)
	}
	if got := <-timeoutDone; got != http.StatusGatewayTimeout {
		t.Fatalf("deadline shed: status %d, want 504", got)
	}
	pw.Close()
	<-streamDone

	// Draining rejects new scans on its own counter.
	s.Drain()
	dr, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()

	m := getMetricsJSON(t, ts.URL)
	shed := m.Rulesets["nids"].Shed
	if shed.Capacity < 1 || shed.Deadline < 1 || shed.Draining < 1 {
		t.Errorf("shed counters = %+v, want every reason >= 1", shed)
	}
}

// TestTraceEndpoint drives a traced server and checks both export forms:
// the merged Chrome document holds wall-clock request spans (pid 1)
// alongside device cycle events (pid 0), and ?format=spans yields valid
// JSONL with the expected span names.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2, TraceSampleEvery: 1})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	input := testTraffic(4000)
	scanRaw(t, ts.URL, "nids", input, false)
	scanRaw(t, ts.URL, "nids", input, true)
	streamInput(t, ts.URL, "nids", input, 3)

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/trace Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			PID  int    `json:"pid"`
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spanNames := map[string]bool{}
	devEvents := 0
	for _, ev := range doc.TraceEvents {
		switch ev.PID {
		case 0:
			if ev.Ph == "X" || ev.Ph == "i" || ev.Ph == "C" {
				devEvents++
			}
		case 1:
			spanNames[ev.Name] = true
		}
	}
	for _, want := range []string{"scan", "stream", "pool_wait", "scan_stream", "parallel_run"} {
		if !spanNames[want] {
			t.Errorf("merged trace missing span %q (have %v)", want, spanNames)
		}
	}
	if devEvents == 0 {
		t.Error("merged trace has no device cycle events on pid 0")
	}

	sresp, err := http.Get(ts.URL + "/trace?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/trace?format=spans Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 6 {
		t.Fatalf("span JSONL has %d lines, want >= 6", len(lines))
	}
	for _, line := range lines {
		var sp struct {
			ID   uint64 `json:"id"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if sp.ID == 0 || sp.Name == "" {
			t.Fatalf("span line missing id/name: %q", line)
		}
	}
}

// TestTracedRequestsConcurrent hammers a fully-traced server from many
// goroutines (run under -race in CI) and then audits the span forest's
// structural integrity: every recorded span's parent is recorded, child
// intervals nest inside their parents', and the latency histogram's
// population equals the number of requests served.
func TestTracedRequestsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 4, QueueDepth: 64, TraceSampleEvery: 1})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})

	input := testTraffic(6000)
	want := wantMatches(t, testRules, nil, input)
	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (g + i) % 3 {
				case 0:
					got := scanRaw(t, ts.URL, "nids", input, true)
					sameMatches(t, fmt.Sprintf("traced %d/%d", g, i), got.Results[0].Matches, want)
				case 1:
					got := scanRaw(t, ts.URL, "nids", input, false)
					sameMatches(t, fmt.Sprintf("traced %d/%d", g, i), got.Results[0].Matches, want)
				case 2:
					events := streamInput(t, ts.URL, "nids", input, g*17+i)
					var got []MatchJSON
					for k := range events {
						if events[k].Match != nil {
							got = append(got, *events[k].Match)
						}
					}
					sameMatches(t, fmt.Sprintf("traced stream %d/%d", g, i), got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	// A client has its answer once the last byte of the JSON arrives, which
	// can be before the handler's deferred root-span End has run (1 run in
	// 12 read 31 root spans here). Close returns when every handler has.
	ts.Close()

	rs, _ := s.lookup("nids")
	if got := rs.lat.Count(); got != workers*perWorker {
		t.Errorf("latency histogram holds %d requests, want %d", got, workers*perWorker)
	}
	if got := rs.wait.Count(); got != workers*perWorker {
		t.Errorf("pool-wait histogram holds %d acquires, want %d", got, workers*perWorker)
	}

	spans := s.spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := make(map[uint64]int, len(spans))
	reqRoots := 0
	for i, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		byID[sp.ID] = i
		if sp.Parent == 0 && (sp.Name == "scan" || sp.Name == "stream") {
			reqRoots++
		}
	}
	if reqRoots != workers*perWorker {
		t.Errorf("%d request root spans, want %d", reqRoots, workers*perWorker)
	}
	dropped := s.spans.Dropped()
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		pi, ok := byID[sp.Parent]
		if !ok {
			// A dropped buffer can orphan children; with zero drops every
			// parent must be present.
			if dropped == 0 {
				t.Fatalf("span %d (%s) has unrecorded parent %d", sp.ID, sp.Name, sp.Parent)
			}
			continue
		}
		p := spans[pi]
		if sp.Start < p.Start || sp.End() > p.End() {
			t.Fatalf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]",
				sp.ID, sp.Name, sp.Start, sp.End(), p.Name, p.Start, p.End())
		}
	}
}

// TestResetRequestMetrics: the isolation hook the benchmark's traced load
// phase calls zeroes every request-scoped instrument but keeps the
// rulesets serving.
func TestResetRequestMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2, TraceSampleEvery: 1})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	input := testTraffic(2000)
	scanRaw(t, ts.URL, "nids", input, false)

	before := getMetricsJSON(t, ts.URL)
	if before.Rulesets["nids"].Latency.Count == 0 {
		t.Fatal("no latency recorded before reset")
	}

	s.ResetRequestMetrics()
	after := getMetricsJSON(t, ts.URL)
	rm := after.Rulesets["nids"]
	if rm.Latency.Count != 0 || rm.PoolWait.Count != 0 || rm.Scans != 0 ||
		rm.Shed.Capacity != 0 || rm.PoolWaitShare != 0 {
		t.Errorf("ruleset metrics not reset: %+v", rm)
	}
	if after.Service.Scans != 0 {
		t.Errorf("service scans not reset: %+v", after.Service)
	}
	if after.Spans != nil && after.Spans.Buffered != 0 {
		t.Errorf("spans not reset: %+v", after.Spans)
	}

	// Still serving: the next scan repopulates.
	scanRaw(t, ts.URL, "nids", input, false)
	final := getMetricsJSON(t, ts.URL)
	if final.Rulesets["nids"].Latency.Count != 1 {
		t.Errorf("post-reset latency count = %d, want 1", final.Rulesets["nids"].Latency.Count)
	}
}
