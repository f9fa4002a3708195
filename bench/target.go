package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"

	"sunder"
	"sunder/internal/server"
	"sunder/internal/telemetry"
)

// target is the program under test, set up and ready to take ops.
type target interface {
	// op runs the workload's entry point on one payload and checks the
	// result against the oracle: the match count always, the digest of
	// every input too when full is set. A nil error is a passed op. The
	// device statistics the entry point reported, summed over the op's
	// inputs, come back for the traced run's counts.
	op(p *payload, full bool) (sunder.Stats, error)
	// plan describes what the engine resolved, as information.
	plan() string
	close() error
}

// setup goes from rules in hand to a target that can take its first op.
// It is the measured part of setup_s, so it starts cold: no compiled
// artifact is reused from an earlier repetition.
func setup(inst *instance) (target, error) {
	if inst.spec.entry == entryHTTP {
		sunder.ResetCompileCache()
		return newHTTPTarget(inst)
	}
	eng, err := compileEngine(inst)
	if err != nil {
		return nil, err
	}
	if inst.spec.entry == entryStream {
		return &streamTarget{eng: eng}, nil
	}
	return &scanTarget{eng: eng}, nil
}

// compileEngine is the facade's cold compile of the workload's rules.
func compileEngine(inst *instance) (*sunder.Engine, error) {
	sunder.ResetCompileCache()
	if inst.spec.entry == entryHTTP {
		return sunder.Compile(inst.patterns, inst.spec.options())
	}
	return sunder.CompileAutomaton(inst.nfa, inst.spec.options())
}

func enginePlan(i sunder.Info) string {
	return fmt.Sprintf("backend=%q prefilter=%q", i.Backend, i.PrefilterStrategy)
}

// refOf puts the matches of one input in the oracle's form: the count, and
// the digest too when full is set.
func refOf[M sunder.Match | server.MatchJSON](matches []M, full bool) ref {
	if !full {
		return ref{count: int64(len(matches))}
	}
	var r ref
	for _, m := range matches {
		r.add(sunder.Match(m).Position, sunder.Match(m).Code)
	}
	return r
}

// check compares one input's matches with its reference.
func check(got ref, want ref, full bool) error {
	if got.count != want.count {
		return fmt.Errorf("%d matches, oracle has %d", got.count, want.count)
	}
	if full && got.digest != want.digest {
		return fmt.Errorf("match digest %016x, oracle has %016x", got.digest, want.digest)
	}
	return nil
}

type scanTarget struct{ eng *sunder.Engine }

func (t *scanTarget) op(p *payload, full bool) (sunder.Stats, error) {
	res, err := t.eng.Scan(p.inputs[0])
	if err != nil {
		return sunder.Stats{}, err
	}
	return res.Stats, check(refOf(res.Matches, full), p.refs[0], full)
}

func (t *scanTarget) plan() string { return enginePlan(t.eng.Info()) }
func (t *scanTarget) close() error { return nil }

type streamTarget struct {
	eng *sunder.Engine
	// parent, set by the traced run only, gives every Write and the Close
	// a span of their own; nil costs one branch per call.
	parent *telemetry.SpanCtx
}

func (t *streamTarget) op(p *payload, full bool) (sunder.Stats, error) {
	var got ref
	onMatch := func(sunder.Match) { got.count++ }
	if full {
		onMatch = func(m sunder.Match) { got.add(m.Position, m.Code) }
	}
	st, err := t.eng.NewStream(onMatch)
	if err != nil {
		return sunder.Stats{}, err
	}
	in := p.inputs[0]
	for off := 0; off < len(in); off += streamChunk {
		sp := t.parent.Child(spanStreamWrite)
		_, err := st.Write(in[off:min(off+streamChunk, len(in))])
		sp.End()
		if err != nil {
			return sunder.Stats{}, err
		}
	}
	sp := t.parent.Child(spanStreamClose)
	stats := st.Close()
	sp.End()
	if err := st.Err(); err != nil {
		return stats, err
	}
	return stats, check(got, p.refs[0], full)
}

func (t *streamTarget) plan() string { return enginePlan(t.eng.Info()) }
func (t *streamTarget) close() error { return nil }

// httpRulesetID names the one rule set http_batch uploads.
const httpRulesetID = "bench"

// httpTarget is an in-process scan service on a loopback listener plus the
// client the closed-loop callers share.
type httpTarget struct {
	srv     *server.Server
	base    string
	client  *http.Client
	stop    context.CancelFunc
	done    chan error
	planStr string
}

// httpClients is the closed-loop client count of http_batch; like
// PoolSize and ScanWorkers it never exceeds the processor count.
func httpClients() int { return min(runtime.GOMAXPROCS(0), 2) }

func newHTTPTarget(inst *instance) (*httpTarget, error) {
	nproc := runtime.GOMAXPROCS(0)
	srv := server.New(server.Config{
		PoolSize:    nproc,
		ScanWorkers: nproc,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &httpTarget{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}},
		stop:   cancel,
		done:   make(chan error, 1),
	}
	go func() { t.done <- srv.Run(ctx, ln) }()

	req := server.RulesetRequest{Options: &server.OptionsJSON{Backend: inst.spec.backend, Minimize: inst.spec.minimize}}
	for _, p := range inst.patterns {
		req.Patterns = append(req.Patterns, server.PatternJSON{Expr: p.Expr, Code: p.Code})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.close()
		return nil, err
	}
	var info server.RulesetInfo
	put, err := http.NewRequest(http.MethodPut, t.base+"/rulesets/"+httpRulesetID, bytes.NewReader(body))
	if err == nil {
		err = t.do(put, http.StatusCreated, &info)
	}
	if err != nil {
		t.close()
		return nil, fmt.Errorf("PUT ruleset: %w", err)
	}
	// The wire form leaves the strategy out when the prefilter is off.
	t.planStr = enginePlan(sunder.Info{Backend: info.Info.Backend, PrefilterStrategy: cmp.Or(info.Info.PrefilterStrategy, "off")})
	return t, nil
}

// do sends one request and decodes the JSON response into out. Any status
// but want is an error: a 503 shed is a failed op like any other.
func (t *httpTarget) do(req *http.Request, want int, out any) error {
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (t *httpTarget) scanRequest(p *payload) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+"/rulesets/"+httpRulesetID+"/scan", bytes.NewReader(p.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (t *httpTarget) op(p *payload, full bool) (sunder.Stats, error) {
	req, err := t.scanRequest(p)
	if err != nil {
		return sunder.Stats{}, err
	}
	var resp server.ScanResponse
	if err := t.do(req, http.StatusOK, &resp); err != nil {
		return sunder.Stats{}, err
	}
	return checkScanResponse(&resp, p, full)
}

// addStats adds one scan's device statistics to a running sum.
func addStats(sum *sunder.Stats, s sunder.Stats) {
	sum.KernelCycles += s.KernelCycles
	sum.StallCycles += s.StallCycles
	sum.Flushes += s.Flushes
	sum.Reports += s.Reports
	sum.ReportCycles += s.ReportCycles
	sum.PrefilterWindows += s.PrefilterWindows
	sum.SkippedCycles += s.SkippedCycles
}

func checkScanResponse(resp *server.ScanResponse, p *payload, full bool) (sunder.Stats, error) {
	var sum sunder.Stats
	if len(resp.Results) != len(p.inputs) {
		return sum, fmt.Errorf("%d results for %d inputs", len(resp.Results), len(p.inputs))
	}
	for i, r := range resp.Results {
		addStats(&sum, sunder.Stats(r.Stats))
		if err := check(refOf(r.Matches, full), p.refs[i], full); err != nil {
			return sum, fmt.Errorf("inputs[%d]: %w", i, err)
		}
	}
	return sum, nil
}

func (t *httpTarget) plan() string { return t.planStr }

// close shuts the service down and waits for its goroutines to end.
func (t *httpTarget) close() error {
	t.stop()
	err := <-t.done
	t.client.CloseIdleConnections()
	return err
}
