package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sunder"
	"sunder/internal/workload"
)

var testRules = []PatternJSON{
	{Expr: `GET /admin`, Code: 100},
	{Expr: `/etc/passwd`, Code: 201},
	{Expr: `SELECT .* FROM`, Code: 203},
	{Expr: `(ab|a.)c`, Code: 7}, // prunable: exercises the Prune cache path
}

// testTraffic synthesizes input with a deterministic mix of matches.
func testTraffic(n int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "GET /index-%d HTTP/1.1\r\n", i)
		case 1:
			fmt.Fprintf(&b, "GET /admin HTTP/1.1\r\nabc\r\n")
		case 2:
			fmt.Fprintf(&b, "POST /q SELECT name FROM users\r\n")
		case 3:
			fmt.Fprintf(&b, "f=/etc/passwd&pad=%d\r\n", i)
		case 4:
			fmt.Fprintf(&b, "axcabc noise %d\r\n", i)
		}
	}
	return b.Bytes()
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func putRuleset(t *testing.T, base, id string, req RulesetRequest) RulesetInfo {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPut, base+"/rulesets/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT ruleset: status %d: %s", resp.StatusCode, msg)
	}
	var info RulesetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func scanRaw(t *testing.T, base, id string, input []byte, parallel bool) ScanResponse {
	t.Helper()
	url := base + "/rulesets/" + id + "/scan"
	if parallel {
		url += "?parallel=1"
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("scan: status %d: %s", resp.StatusCode, msg)
	}
	var out ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantMatches(t *testing.T, rules []PatternJSON, opts *OptionsJSON, input []byte) []MatchJSON {
	t.Helper()
	req := RulesetRequest{Patterns: rules, Options: opts}
	eng, err := sunder.Compile(req.SunderPatterns(), opts.Options())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	return matchesJSON(res.Matches)
}

func sameMatches(t *testing.T, label string, got, want []MatchJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d matches, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
			return
		}
	}
}

// TestServerEndToEnd is the acceptance path: ruleset upload, batched scan,
// raw scan, parallel scan and streaming scan all return byte-identical
// matches to library Scan on the same input.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 2})
	req := RulesetRequest{Patterns: testRules}
	info := putRuleset(t, ts.URL, "nids", req)
	if info.Info.DeviceStates == 0 || info.Pool.Size != 2 {
		t.Fatalf("unexpected ruleset info: %+v", info)
	}

	input := testTraffic(20000)
	want := wantMatches(t, testRules, nil, input)
	if len(want) == 0 {
		t.Fatal("test traffic produces no matches; the equivalence check would be vacuous")
	}

	// Raw single-input scans: the synthetic traffic sequential and parallel,
	// then each of the 19 benchmark workload inputs. testRules fire once in
	// all 19, so those run on a second ruleset that adds a dense class
	// (~170 matches per input).
	wlRules := append(append([]PatternJSON(nil), testRules...), PatternJSON{Expr: `[0-3A-Da-d]{3}`, Code: 301})
	putRuleset(t, ts.URL, "wl", RulesetRequest{Patterns: wlRules})
	type rawCase struct {
		label, id string
		rules     []PatternJSON
		input     []byte
		parallel  bool
	}
	raw := []rawCase{
		{"raw parallel=false", "nids", testRules, input, false},
		{"raw parallel=true", "nids", testRules, input, true},
	}
	for _, name := range workload.Names() {
		w, err := workload.Get(name, workload.DefaultScale, workload.DefaultInputLen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw = append(raw, rawCase{"raw " + name, "wl", wlRules, w.Input, false})
	}
	for _, c := range raw {
		got := scanRaw(t, ts.URL, c.id, c.input, c.parallel)
		if len(got.Results) != 1 {
			t.Fatalf("%s: %d results", c.label, len(got.Results))
		}
		sameMatches(t, c.label, got.Results[0].Matches, wantMatches(t, c.rules, nil, c.input))
	}

	// Batched JSON scan: several inputs, each equivalent to its own Scan.
	inputs := [][]byte{input, testTraffic(3000), []byte("no matches here"), testTraffic(9000)}
	body, err := json.Marshal(EncodeInputs(inputs))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch scan: status %d: %s", resp.StatusCode, msg)
	}
	var batch ScanResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(inputs) {
		t.Fatalf("batch scan: %d results, want %d", len(batch.Results), len(inputs))
	}
	for i, in := range inputs {
		sameMatches(t, fmt.Sprintf("batch input %d", i), batch.Results[i].Matches, wantMatches(t, testRules, nil, in))
	}

	// Streaming scan in ragged chunks: same matches, in order, plus a
	// terminal stats line.
	events := streamInput(t, ts.URL, "nids", input, 777)
	var got []MatchJSON
	var final *StreamEvent
	for i := range events {
		if events[i].Done {
			final = &events[i]
			break
		}
		if events[i].Match != nil {
			got = append(got, *events[i].Match)
		}
	}
	sameMatches(t, "stream", got, want)
	if final == nil {
		t.Fatal("stream: no terminal event")
	}
	if final.Reason != "" {
		t.Fatalf("stream ended early: %q", final.Reason)
	}
	if final.Bytes != int64(len(input)) {
		t.Errorf("stream consumed %d bytes, want %d", final.Bytes, len(input))
	}
	if final.Stats == nil || final.Stats.Reports == 0 {
		t.Errorf("stream terminal stats missing or empty: %+v", final.Stats)
	}

	// The ruleset's serving counters moved.
	gr, err := http.Get(ts.URL + "/rulesets/nids")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	var after RulesetInfo
	if err := json.NewDecoder(gr.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Scans == 0 || after.Bytes == 0 {
		t.Errorf("ruleset stats did not move: %+v", after)
	}
}

// streamInput POSTs input to the streaming endpoint in ragged chunks and
// returns the decoded NDJSON events.
func streamInput(t *testing.T, base, id string, input []byte, seed int) []StreamEvent {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for off := 0; off < len(input); {
			n := 64 + (seed+off)%1901
			if off+n > len(input) {
				n = len(input) - off
			}
			if _, err := pw.Write(input[off : off+n]); err != nil {
				return
			}
			off += n
		}
	}()
	resp, err := http.Post(base+"/rulesets/"+id+"/stream", "application/octet-stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, msg)
	}
	return decodeEvents(t, resp.Body)
}

func decodeEvents(t *testing.T, r io.Reader) []StreamEvent {
	t.Helper()
	var events []StreamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestServerRulesetLifecycle covers replace, list, delete and the error
// paths of ruleset management.
func TestServerRulesetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})

	// Unknown ruleset: 404 everywhere.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/rulesets/nope"},
		{http.MethodDelete, "/rulesets/nope"},
		{http.MethodPost, "/rulesets/nope/scan"},
		{http.MethodPost, "/rulesets/nope/stream"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Bad rule set: compile error surfaces as 422.
	body, _ := json.Marshal(RulesetRequest{Patterns: []PatternJSON{{Expr: "a(b", Code: 1}}})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/rulesets/bad", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad ruleset: status %d, want 422", resp.StatusCode)
	}

	// Create, replace (200 on second PUT), list, delete.
	putRuleset(t, ts.URL, "a", RulesetRequest{Patterns: testRules})
	prune := RulesetRequest{Patterns: testRules, Options: &OptionsJSON{Prune: true}}
	info := putRuleset(t, ts.URL, "a", prune)
	if info.Info.PrunedStates == 0 {
		t.Errorf("pruned replacement reports 0 pruned states: %+v", info.Info)
	}
	lr, err := http.Get(ts.URL + "/rulesets")
	if err != nil {
		t.Fatal(err)
	}
	var list map[string][]RulesetInfo
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list["rulesets"]) != 1 {
		t.Errorf("list: %d rulesets, want 1", len(list["rulesets"]))
	}
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rulesets/a", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", dresp.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/rulesets/a")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", gr.StatusCode)
	}
}

// TestServerConcurrentClients hammers one ruleset with mixed batch, raw,
// parallel and streaming requests from many goroutines (run under -race in
// CI); every response must equal the library reference.
func TestServerConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 4, QueueDepth: 64})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})

	input := testTraffic(8000)
	want := wantMatches(t, testRules, nil, input)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch (g + i) % 3 {
				case 0:
					got := scanRaw(t, ts.URL, "nids", input, g%2 == 0)
					sameMatches(t, fmt.Sprintf("client %d raw %d", g, i), got.Results[0].Matches, want)
				case 1:
					body, _ := json.Marshal(EncodeInputs([][]byte{input, input}))
					resp, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("client %d: %v", g, err)
						return
					}
					var out ScanResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil || len(out.Results) != 2 {
						t.Errorf("client %d batch: %v (%d results)", g, err, len(out.Results))
						return
					}
					for j := range out.Results {
						sameMatches(t, fmt.Sprintf("client %d batch %d input %d", g, i, j), out.Results[j].Matches, want)
					}
				case 2:
					events := streamInput(t, ts.URL, "nids", input, g*31+i)
					var got []MatchJSON
					for k := range events {
						if events[k].Match != nil {
							got = append(got, *events[k].Match)
						}
					}
					sameMatches(t, fmt.Sprintf("client %d stream %d", g, i), got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEnginePoolBackpressure pins the pool contract: one engine, zero
// queue slots — the first acquirer holds the engine, the second waits
// until its context expires, and a third concurrent acquirer is shed
// immediately with ErrPoolBusy.
func TestEnginePoolBackpressure(t *testing.T) {
	eng, err := sunder.Compile([]sunder.Pattern{{Expr: "ab", Code: 1}}, sunder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePool(eng, 1, 0, nil)
	held, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second acquirer occupies the single in-flight slot and waits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waitErr := make(chan error, 1)
	go func() {
		_, err := p.acquire(ctx)
		waitErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.tokens) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second acquirer never started waiting")
		}
		time.Sleep(time.Millisecond)
	}

	// Third: queue full, fail fast.
	if _, err := p.acquire(context.Background()); err != ErrPoolBusy {
		t.Fatalf("third acquire: %v, want ErrPoolBusy", err)
	}

	// The waiter honors its context...
	cancel()
	if err := <-waitErr; err != context.Canceled {
		t.Fatalf("canceled waiter: %v, want context.Canceled", err)
	}
	// ...and release hands the engine to the next acquirer.
	p.release(held)
	got, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != held {
		t.Fatal("pool returned a different engine than released")
	}
}

// TestServerSheddingUnderLoad drives the HTTP layer into backpressure: a
// stream holds the only engine, a scan with a short deadline times out
// (504), and once the waiter slot is taken a further request is shed with
// 503 immediately.
func TestServerSheddingUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, ScanTimeout: 250 * time.Millisecond})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})

	// Occupy the only engine with a stream whose body stays open.
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
	for len(rs.pool.engines) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never acquired the engine")
		}
		time.Sleep(time.Millisecond)
	}

	// A scan now waits on the pool and times out: 504.
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

	// With the single waiter slot occupied, the next request sheds: 503.
	resp, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shed request: status %d, want 503", resp.StatusCode)
	}
	if got := <-timeoutDone; got != http.StatusGatewayTimeout {
		t.Errorf("waiting request: status %d, want 504", got)
	}
	pw.Close()
	<-streamDone
}

// TestServerGracefulDrainMidStream: Drain ends a live stream at its next
// chunk boundary with reason "draining", the terminal stats line still
// arrives, and new work is refused while draining.
func TestServerGracefulDrainMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})

	input := testTraffic(4000)
	pr, pw := io.Pipe()
	type result struct {
		events []StreamEvent
		status int
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/rulesets/nids/stream", "application/octet-stream", pr)
		if err != nil {
			t.Errorf("stream: %v", err)
			done <- result{}
			return
		}
		defer resp.Body.Close()
		done <- result{events: decodeEvents(t, resp.Body), status: resp.StatusCode}
	}()

	if _, err := pw.Write(input); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has consumed the first chunks, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.scanBytes.Load() == 0 && s.activeStreams.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	// Feed one more chunk so the handler passes a chunk boundary; the body
	// stays open — termination must come from the drain, not EOF.
	pw.Write(input)

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("stream status %d", res.status)
	}
	if len(res.events) == 0 {
		t.Fatal("no stream events")
	}
	final := res.events[len(res.events)-1]
	if !final.Done || final.Reason != "draining" {
		t.Fatalf("terminal event = %+v, want done with reason draining", final)
	}
	if final.Stats == nil {
		t.Error("drained stream lost its terminal stats")
	}
	pw.Close()

	// While draining: health is 503 and new scans are refused.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hr.StatusCode)
	}
	sr, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("scan while draining: %d, want 503", sr.StatusCode)
	}
}

// TestServerRunGracefulShutdown exercises the Run lifecycle end to end on
// a real listener: serve, scan, cancel the context mid-stream, and get a
// clean exit with the stream terminated by the drain.
func TestServerRunGracefulShutdown(t *testing.T) {
	s := New(Config{PoolSize: 2, Logger: quietLogger(), DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	putRuleset(t, base, "nids", RulesetRequest{Patterns: testRules})
	input := testTraffic(5000)
	got := scanRaw(t, base, "nids", input, false)
	sameMatches(t, "run scan", got.Results[0].Matches, wantMatches(t, testRules, nil, input))

	// Open a stream, then shut down mid-stream.
	pr, pw := io.Pipe()
	streamDone := make(chan []StreamEvent, 1)
	go func() {
		resp, err := http.Post(base+"/rulesets/nids/stream", "application/octet-stream", pr)
		if err != nil {
			streamDone <- nil
			return
		}
		defer resp.Body.Close()
		streamDone <- decodeEvents(t, resp.Body)
	}()
	pw.Write(input)
	deadline := time.Now().Add(5 * time.Second)
	for s.activeStreams.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	// Run begins the drain on its own goroutine. A chunk that passes the
	// handler before that leaves it waiting in Read for one that never
	// comes (the hang this test had under load), so wait for the drain.
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("cancel never began the drain")
		}
		time.Sleep(time.Millisecond)
	}
	// Pass a chunk boundary so that a handler waiting in Read observes the
	// drain. One that observed it before reading again has already ended the
	// response, and whether the transport still reads the pipe then is its
	// business: the write goes on its own goroutine, and pw.Close below
	// releases it.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		pw.Write(input)
	}()
	events := <-streamDone
	if len(events) == 0 {
		t.Fatal("mid-shutdown stream returned no events")
	}
	if final := events[len(events)-1]; !final.Done || final.Reason != "draining" {
		t.Fatalf("terminal event = %+v, want done/draining", final)
	}
	pw.Close()
	<-wrote
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil on graceful shutdown", err)
	}
}

// TestServerMetricsAndLimits covers /metrics content and the body-size
// limit.
func TestServerMetricsAndLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, MaxBodyBytes: 1024})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	scanRaw(t, ts.URL, "nids", []byte("GET /admin abc"), false)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"server_requests_total", "server_scans_total", "server_scan_bytes_total",
		"server_rulesets 1", "compile_cache_hits_total", "device_kernel_cycles",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Errorf("metrics missing %q:\n%s", metric, body)
		}
	}

	// A minimized ruleset surfaces in the wire info and in the
	// minimization aggregates of both metrics formats.
	minInfo := putRuleset(t, ts.URL, "min", RulesetRequest{
		Patterns: testRules, Options: &OptionsJSON{Minimize: true},
	})
	if minInfo.Info.SymbolClasses == 0 {
		t.Errorf("minimized ruleset reports 0 symbol classes: %+v", minInfo.Info)
	}
	scanRaw(t, ts.URL, "min", []byte("GET /admin abc"), false)
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mbody, []byte("server_minimized_rulesets 1")) {
		t.Errorf("metrics missing minimization aggregate:\n%s", mbody)
	}
	jr, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var mj MetricsJSON
	if err := json.NewDecoder(jr.Body).Decode(&mj); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if mj.Minimize == nil || mj.Minimize.Rulesets != 1 {
		t.Errorf("metrics JSON minimize aggregate = %+v, want 1 ruleset", mj.Minimize)
	}

	// Oversized raw scan: 413.
	big := bytes.Repeat([]byte("x"), 4096)
	sr, err := http.Post(ts.URL+"/rulesets/nids/scan", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized scan: status %d, want 413", sr.StatusCode)
	}

	// pprof index answers.
	pr, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", pr.StatusCode)
	}
}

// TestServerNarrowMetadataBits: options.metadata_bits is accepted over the
// wire, and a width too narrow to cycle-stamp a long input used to panic
// the device model mid-scan — with no recover() in the server, one tenant's
// ruleset took every tenant down. It is a 422 now, on the raw, the sharded
// and the batch path, and the server keeps serving.
func TestServerNarrowMetadataBits(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1})
	putRuleset(t, ts.URL, "narrow", RulesetRequest{
		Patterns: []PatternJSON{{Expr: "ab", Code: 1}}, Options: &OptionsJSON{MetadataBits: 1},
	})
	long := bytes.Repeat([]byte("ab"), 20<<10)
	batch, err := json.Marshal(EncodeInputs([][]byte{[]byte("ab"), long}))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct {
		query, contentType string
		body               []byte
	}{
		{"", "application/octet-stream", long},
		{"?parallel=1", "application/octet-stream", long},
		{"", "application/json", batch},
	} {
		resp, err := http.Post(ts.URL+"/rulesets/narrow/scan"+req.query, req.contentType, bytes.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(msg, []byte("cycle range")) {
			t.Errorf("%s scan %q: status %d: %s", req.contentType, req.query, resp.StatusCode, msg)
		}
	}
	if got := scanRaw(t, ts.URL, "narrow", []byte("xxabxx"), false); len(got.Results[0].Matches) != 1 {
		t.Errorf("scan after the refusals: %+v", got)
	}
}
