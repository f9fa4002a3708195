package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sunder"
	"sunder/internal/cluster/chaos"
	"sunder/internal/server"
)

// testRules is a small NIDS-style rule set: literals, a dense character
// class and a prunable alternation.
func testRules() []server.PatternJSON {
	return []server.PatternJSON{
		{Expr: `GET /admin`, Code: 100},
		{Expr: `/etc/passwd`, Code: 201},
		{Expr: `[0-3A-Da-d]{3}`, Code: 301},
		{Expr: `(ab|a.)c`, Code: 7},
	}
}

func testRulesetReq() server.RulesetRequest {
	return server.RulesetRequest{Patterns: testRules(), Options: &server.OptionsJSON{Prune: true}}
}

// testInput is a deterministic byte stream dense in the rule alphabet.
func testInput(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "abcd0123 GET /admin /etc/passwd"[i%31]
	}
	return out
}

// referenceScanBody computes the canonical scan response body for
// (rules, input) from a pristine single-node server — the byte-identical
// ground truth every cluster response is compared against.
func referenceScanBody(t *testing.T, req server.RulesetRequest, id string, input []byte) []byte {
	t.Helper()
	srv := server.New(server.Config{Logger: discardLogger()})
	if err := putDirect(srv, id, req); err != nil {
		t.Fatalf("reference put: %v", err)
	}
	rt := hand(srv)
	hreq, err := http.NewRequest(http.MethodPost, "http://ref/rulesets/"+id+"/scan", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.RoundTrip(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference scan: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

func hand(s *server.Server) handlerTransport { return handlerTransport{handler: s.Handler} }

// TestClusterScanMatchesLocal: the base case with no chaos — a cluster
// scan's bytes equal the single-node reference and the decoded matches
// equal the local library Scan.
func TestClusterScanMatchesLocal(t *testing.T) {
	cl := New(Config{Nodes: 3, Replicas: 2, Logger: discardLogger()})
	req := testRulesetReq()
	if err := cl.PutRuleset(context.Background(), "rs", req); err != nil {
		t.Fatal(err)
	}
	input := testInput(8192)
	want := referenceScanBody(t, req, "rs", input)

	resp, err := cl.Scan(context.Background(), "rs", input)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK {
		t.Fatalf("scan: HTTP %d: %s", resp.Status, resp.Body)
	}
	if !bytes.Equal(resp.Body, want) {
		t.Fatalf("cluster scan diverged from local reference (%d vs %d bytes)", len(resp.Body), len(want))
	}
	// And against the library directly: same matches.
	ref, err := sunder.CompileCached(req.SunderPatterns(), req.Options.Options())
	if err != nil {
		t.Fatal(err)
	}
	local, err := ref.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	var out server.ScanResponse
	if err := json.Unmarshal(resp.Body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Matches) != len(local.Matches) {
		t.Fatalf("match count %d, want %d", len(out.Results[0].Matches), len(local.Matches))
	}
	if len(local.Matches) == 0 {
		t.Fatal("vacuous equivalence: rules never fired on the test input")
	}
	// The serving replica is one of the ruleset's ring replicas.
	reps := cl.Replicas("rs")
	if resp.Node != reps[0] && resp.Node != reps[1] {
		t.Fatalf("served by %s, not in replica set %v", resp.Node, reps)
	}
}

// TestClusterFrontDoor drives the cluster through its HTTP front door:
// ruleset upload, scan (byte-identical to reference), stream, metrics in
// both formats, healthz and the node list.
func TestClusterFrontDoor(t *testing.T) {
	cl := New(Config{Nodes: 3, Replicas: 2, Logger: discardLogger()})
	ts := httptest.NewServer(cl.Handler())
	defer ts.Close()

	req := testRulesetReq()
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPut, ts.URL+"/rulesets/fd", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("front-door PUT: HTTP %d", resp.StatusCode)
	}

	input := testInput(4096)
	want := referenceScanBody(t, req, "fd", input)
	resp, err = http.Post(ts.URL+"/rulesets/fd/scan", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front-door scan: HTTP %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("front-door scan bytes diverged from reference")
	}
	if resp.Header.Get(server.DigestHeader) == "" {
		t.Fatal("front door dropped the scan digest header")
	}

	// Streaming endpoint relays NDJSON events.
	resp, err = http.Post(ts.URL+"/rulesets/fd/stream", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(stream, []byte(`"done":true`)) {
		t.Fatalf("front-door stream: HTTP %d, done-event present: %v", resp.StatusCode, bytes.Contains(stream, []byte(`"done":true`)))
	}

	// Metrics: text format carries the cluster counters...
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cluster_nodes 3", "cluster_replicas 2", "cluster_requests_total", "cluster_retries_total", "cluster_hedges_total", "cluster_breaker_rejects_total", `cluster_node_requests_total{node="node0"}`, `cluster_node_breaker{node="node0"} "closed"`} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// ...and JSON decodes into the typed document.
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsJSON
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 3 || m.Replicas != 2 || m.Client.Requests < 2 {
		t.Fatalf("metrics JSON %+v, want 3 nodes / 2 replicas / >=2 requests", m)
	}

	for _, path := range []string{"/healthz", "/nodes"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
}

// TestClusterDrainRejoin: draining a replica re-routes scans to its peer
// with zero output change; rejoin re-replicates the ruleset before the
// node takes traffic again, so post-rejoin scans from it are also
// byte-identical.
func TestClusterDrainRejoin(t *testing.T) {
	cl := New(Config{
		Nodes:    3,
		Replicas: 2,
		// A short drain budget keeps the shed Retry-After (and therefore the
		// honored backoff) small; the breaker opens fast on sheds.
		Node:   server.Config{DrainTimeout: time.Second},
		Client: ClientConfig{BackoffCap: 50 * time.Millisecond, Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 50 * time.Millisecond}},
		Logger: discardLogger(),
	})
	req := testRulesetReq()
	if err := cl.PutRuleset(context.Background(), "dr", req); err != nil {
		t.Fatal(err)
	}
	input := testInput(4096)
	want := referenceScanBody(t, req, "dr", input)
	reps := cl.Replicas("dr")
	primary, secondary := reps[0], reps[1]

	if err := cl.DrainNode(primary); err != nil {
		t.Fatal(err)
	}
	// Health probes notice the drain (healthz turns 503) and open the
	// breaker without burning scan retries.
	cl.ProbeHealth(context.Background())
	cl.ProbeHealth(context.Background())
	for i := 0; i < 4; i++ {
		resp, err := cl.Scan(context.Background(), "dr", input)
		if err != nil {
			t.Fatalf("scan %d during drain: %v", i, err)
		}
		if resp.Status != http.StatusOK || !bytes.Equal(resp.Body, want) {
			t.Fatalf("scan %d during drain: HTTP %d, identical=%v", i, resp.Status, bytes.Equal(resp.Body, want))
		}
		if resp.Node != secondary {
			t.Fatalf("scan %d served by %s during %s drain, want %s", i, resp.Node, primary, secondary)
		}
	}
	m := cl.Metrics()
	for _, n := range m.Nodes {
		if n.ID == primary && !n.Draining {
			t.Error("metrics do not show the drained node as draining")
		}
	}

	// Rejoin: fresh server, rulesets re-replicated before the swap.
	if err := cl.RejoinNode(primary); err != nil {
		t.Fatal(err)
	}
	cl.ProbeHealth(context.Background())
	servedByPrimary := false
	for i := 0; i < 10 && !servedByPrimary; i++ {
		resp, err := cl.Scan(context.Background(), "dr", input)
		if err != nil {
			t.Fatalf("scan %d after rejoin: %v", i, err)
		}
		if resp.Status != http.StatusOK || !bytes.Equal(resp.Body, want) {
			t.Fatalf("scan %d after rejoin diverged (HTTP %d)", i, resp.Status)
		}
		servedByPrimary = servedByPrimary || resp.Node == primary
	}
	if !servedByPrimary {
		t.Fatal("rejoined primary never took traffic again")
	}
}

// TestClusterDegradedReplicationStillServes: when one replica is dead at
// upload time, PutRuleset reports success (one copy exists) and scans are
// served — from the surviving replica, and with a 404-failover guard if
// routing tries the dead-then-revived empty node.
func TestClusterDegradedReplicationStillServes(t *testing.T) {
	ctl := chaos.NewController(chaos.Config{Seed: 11})
	cl := New(Config{
		Nodes:     3,
		Replicas:  2,
		Transport: ctl.Wrap,
		Client:    ClientConfig{BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond},
		Logger:    discardLogger(),
	})
	req := testRulesetReq()
	reps := cl.Replicas("dg")
	ctl.Kill(reps[1])
	if err := cl.PutRuleset(context.Background(), "dg", req); err != nil {
		t.Fatalf("degraded put failed outright: %v", err)
	}
	input := testInput(2048)
	want := referenceScanBody(t, req, "dg", input)
	resp, err := cl.Scan(context.Background(), "dg", input)
	if err != nil || resp.Status != http.StatusOK || !bytes.Equal(resp.Body, want) {
		t.Fatalf("degraded scan: err=%v status=%v", err, resp)
	}

	// The revived (but empty) replica 404s; the client must fail over to
	// the copy that exists rather than surfacing the 404.
	ctl.Revive(reps[1])
	for i := 0; i < 6; i++ {
		resp, err := cl.Scan(context.Background(), "dg", input)
		if err != nil || resp.Status != http.StatusOK || !bytes.Equal(resp.Body, want) {
			t.Fatalf("scan %d with empty replica: err=%v resp=%+v", i, err, resp)
		}
	}
}

// TestClusterSpans: with sampling on, cluster requests record a root span
// per logical request and child spans per try.
func TestClusterSpans(t *testing.T) {
	cl := New(Config{Nodes: 3, Replicas: 2, TraceSampleEvery: 1, Logger: discardLogger()})
	if err := cl.PutRuleset(context.Background(), "sp", testRulesetReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Scan(context.Background(), "sp", testInput(1024)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cl.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: HTTP %d", resp.StatusCode)
	}
	text := string(trace)
	if !strings.Contains(text, "cluster_scan") || !strings.Contains(text, `"try"`) {
		t.Fatalf("trace missing cluster_scan root or try child spans:\n%s", text)
	}
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
