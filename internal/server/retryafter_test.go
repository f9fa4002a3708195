package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// retryAfterSecs extracts and bounds-checks the Retry-After header of a
// shed response: present, an integer, and within [1, 60] seconds — small
// enough that a client's backoff stays useful, large enough to be a real
// hint.
func retryAfterSecs(t *testing.T, resp *http.Response) int {
	t.Helper()
	ra := resp.Header.Get(RetryAfterHeader)
	if ra == "" {
		t.Fatalf("503 response has no %s header", RetryAfterHeader)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("%s = %q is not an integer: %v", RetryAfterHeader, ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("%s = %d out of sane bounds [1, 60]", RetryAfterHeader, secs)
	}
	return secs
}

// TestDrainingShedsWithRetryAfter: every 503 issued because the server is
// draining carries a Retry-After hint derived from the drain budget.
func TestDrainingShedsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, DrainTimeout: 5 * time.Second})
	putRuleset(t, ts.URL, "ra", RulesetRequest{Patterns: testRules})
	s.Drain()

	resp, err := http.Post(ts.URL+"/rulesets/ra/scan", "application/octet-stream", bytes.NewReader([]byte("abc")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("scan while draining: status %d, want 503", resp.StatusCode)
	}
	if secs := retryAfterSecs(t, resp); secs != 5 {
		t.Errorf("draining Retry-After = %ds, want 5 (the drain budget)", secs)
	}

	// The ruleset-upload path sheds with the same hint.
	resp, err = http.Post(ts.URL+"/rulesets/ra/stream", "application/octet-stream", bytes.NewReader([]byte("abc")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining: status %d, want 503", resp.StatusCode)
	}
	retryAfterSecs(t, resp)
}

// TestCapacityShedsWithRetryAfter: a pool-saturation 503 carries the
// minimum Retry-After (1s) — the condition is transient.
func TestCapacityShedsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: -1, ScanTimeout: 5 * time.Second})
	putRuleset(t, ts.URL, "cap", RulesetRequest{Patterns: testRules})

	// Occupy the single engine with a stream whose body stays open. The
	// pipe is closed in Cleanup so the httptest server can always shut
	// down, whatever path the test takes.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/rulesets/cap/stream", "application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		streamDone <- err
	}()
	if _, err := pw.Write([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.activeStreams.Load() == 1 }, "stream never became active")

	// With no queue, ErrPoolBusy needs one waiter already holding the
	// token slot; park one scan behind the stream, wait until it holds
	// the slot, then probe.
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		resp, err := http.Post(ts.URL+"/rulesets/cap/scan", "application/octet-stream", bytes.NewReader([]byte("y")))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	rs, ok := s.lookup("cap")
	if !ok {
		t.Fatal("ruleset missing")
	}
	waitFor(t, func() bool { return len(rs.pool.tokens) == 1 }, "waiter never parked on the token slot")

	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/rulesets/cap/scan", "application/octet-stream", bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs := retryAfterSecs(t, resp); secs != 1 {
				t.Errorf("capacity Retry-After = %ds, want 1", secs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed a capacity shed (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unblock the stream; the parked waiter then gets the engine and
	// finishes too.
	pw.Close()
	if err := <-streamDone; err != nil {
		t.Fatalf("stream request: %v", err)
	}
	<-waiterDone
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
