package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"sunder"
	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/prefilter"
	"sunder/internal/regex"
	"sunder/internal/sched"
	"sunder/internal/server"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
)

// The traced run measures layers from the outside: the program is not
// edited. Each op gets a span around the public entry point, and the same
// payload is then replayed through the exported functions of the layers
// the engine's resolved plan uses, one span each, parented on the op.
// Set-up is replayed the same way under a "setup" span.
const (
	spanSetup = "setup"
	spanOp    = "op"

	spanFacadeCompile   = "facade.compile"
	spanRegexCompile    = "regex.compile"
	spanToRate          = "transform.to_rate"
	spanMinimize        = "analysis.minimize"
	spanSymbolClasses   = "analysis.symbol_classes"
	spanPlace           = "mapping.place"
	spanConfigure       = "core.configure"
	spanDFAPlan         = "dfa.plan"
	spanDependence      = "sched.dependence"
	spanPrefilterExtact = "prefilter.extract"

	spanExpand        = "funcsim.expand"
	spanCoreRun       = "core.run"
	spanDFAStep       = "dfa.step"
	spanPrefilterScan = "prefilter.scan"
	spanStreamWrite   = "facade.stream_write"
	spanStreamClose   = "facade.stream_close"
	spanScanBatch     = "facade.scan_batch"
	spanHandler       = "server.handler"
	spanJSONDecode    = "server.json_decode"
	spanJSONEncode    = "server.json_encode"
	spanRawBody       = "server.raw_body"
)

const (
	// setupReplays is how often the traced run replays set-up; the layer
	// compile times are medians over them.
	setupReplays = 3
	// probePayloads is how many payloads the once-per-run probes touch.
	probePayloads = 4
	// maxTracedOps ends the measured loop early on a fast workload. An op
	// records at most 48 spans (stream_chunks: 45 Writes, Close, op, one
	// layer), so the buffer holds them however fast a later engine gets.
	maxTracedOps = 4096
	spanCapacity = 1 << 18
)

func timed(parent *telemetry.SpanCtx, name string, f func()) {
	sp := parent.Child(name)
	f()
	sp.End()
}

// pipeline is the compile pipeline rebuilt from the layers' exported
// functions, in the order the facade calls them, plus the replay state.
type pipeline struct {
	nfa     *automata.Automaton
	ua      *automata.UnitAutomaton
	proto   *core.Machine
	machine *core.Machine
	runner  *dfa.Runner
	scanner prefilter.Scanner

	deviceStates, merged, classes, pus, literals int
}

func buildPipeline(inst *instance, parent *telemetry.SpanCtx) (*pipeline, error) {
	opts := inst.spec.options()
	pl := &pipeline{nfa: inst.nfa}
	var err error
	if inst.spec.entry == entryHTTP {
		rps := make([]regex.Pattern, len(inst.patterns))
		for i, p := range inst.patterns {
			rps[i] = regex.Pattern{Expr: p.Expr, Code: p.Code}
		}
		timed(parent, spanRegexCompile, func() { pl.nfa, err = regex.CompileSet(rps) })
		if err != nil {
			return nil, err
		}
	}
	timed(parent, spanToRate, func() { pl.ua, err = transform.ToRate(pl.nfa, opts.Rate) })
	if err != nil {
		return nil, err
	}
	if opts.Minimize {
		timed(parent, spanMinimize, func() {
			pre := pl.ua.Clone()
			res := analysis.Minimize(pl.ua)
			pl.merged = res.Merged()
			err = analysis.CheckCertificate(pre, pl.ua, res.Cert)
		})
		if err != nil {
			return nil, err
		}
	}
	pl.deviceStates = pl.ua.NumStates()

	var sc *analysis.SymbolClassCert
	timed(parent, spanSymbolClasses, func() {
		sc = analysis.SymbolClasses(pl.nfa)
		err = analysis.CheckSymbolClasses(pl.nfa, sc)
	})
	if err != nil {
		return nil, err
	}
	pl.classes = sc.Count()

	cfg := core.DefaultConfig(opts.Rate)
	cfg.ReportColumns, cfg.MetadataBits, cfg.FIFO = opts.ReportColumns, opts.MetadataBits, opts.FIFO
	var place *mapping.Placement
	timed(parent, spanPlace, func() {
		if cfg.ReportColumns, err = mapping.AutoReportColumns(pl.ua, cfg.ReportColumns); err == nil {
			place, err = mapping.Place(pl.ua, cfg.ReportColumns)
		}
	})
	if err != nil {
		return nil, err
	}
	timed(parent, spanConfigure, func() { pl.proto, err = core.Configure(pl.ua, place, cfg) })
	if err != nil {
		return nil, err
	}
	pl.machine = pl.proto.Clone()
	pl.pus = pl.proto.NumPUs()

	if ok, _ := dfa.Supported(pl.ua); ok {
		var plan *dfa.Plan
		timed(parent, spanDFAPlan, func() { plan, err = dfa.NewPlan(pl.ua, sc.Class, sc.Count()) })
		if err != nil {
			return nil, err
		}
		pl.runner = dfa.NewRunner(plan, dfa.DefaultConfig())
	}
	timed(parent, spanDependence, func() { sched.DependenceCycles(pl.ua) })
	if opts.Prefilter == sunder.PrefilterOn {
		timed(parent, spanPrefilterExtact, func() {
			if ex := prefilter.Extract(pl.nfa, prefilter.DefaultConfig()); ex.OK {
				pl.scanner = prefilter.NewScannerFold(ex.Literals, ex.FoldCase)
				pl.literals = len(ex.Literals)
			}
		})
	}
	return pl, nil
}

// stepDFA drives the lazy DFA over one input with no report assembly.
func (pl *pipeline) stepDFA(in []byte) {
	pl.runner.Reset()
	sb := pl.runner.Plan().StepBytes()
	for off := 0; off < len(in); off += sb {
		end := min(off+sb, len(in))
		pl.runner.Step(in[off:end], off+sb-end)
	}
}

// plan is which layers execute an op, read off what one scan of the
// engine reports: an engaged prefilter fills in Stats.PrefilterWindows or
// SkippedCycles, the lazy DFA counts its lookups in DFAStats, and cycles
// neither of them took were stepped on the device core.
type plan struct{ core, dfa, prefilter bool }

func resolvePlan(eng *sunder.Engine, pl *pipeline, probe []byte) (plan, error) {
	res, err := eng.Scan(probe)
	if err != nil {
		return plan{}, err
	}
	lookups := eng.DFAStats()
	engaged := res.Stats.PrefilterWindows+res.Stats.SkippedCycles > 0 && pl.scanner != nil
	isDFA := lookups.Hits+lookups.Misses > 0 && pl.runner != nil
	return plan{core: !isDFA, dfa: isDFA, prefilter: engaged}, nil
}

// opCount is what one traced op did, recorded at the op's boundary.
type opCount struct {
	bytes   int64
	matches int64
	stats   sunder.Stats
	// replayCycles is how many device cycles the core.run replay stepped:
	// the whole input, of which a prefiltered op executed stats.KernelCycles.
	replayCycles int64
	responseLen  int64
}

// tracedRun is the state of one workload's traced run.
type tracedRun struct {
	inst *instance
	tr   *telemetry.SpanTracer
	t    target
	eng  *sunder.Engine
	pl   *pipeline
	plan plan
	d    *driver

	counts []opCount
	out    map[string]float64
}

// trace runs one workload with tracing on and returns its per-layer
// metrics. jsonl, when non-nil, receives the spans and boundary counts.
func trace(inst *instance, cfg config, jsonl io.Writer) (*result, error) {
	r := &tracedRun{
		inst: inst,
		tr:   telemetry.NewSpanTracer(spanCapacity, 1),
		out:  make(map[string]float64, len(perLayerMetrics)),
	}
	for _, m := range perLayerMetrics {
		r.out[m.name] = 0 // a layer outside the resolved plan reads 0
	}
	for rep := 0; rep < min(setupReplays, cfg.setupReps); rep++ {
		root := r.tr.Root(spanSetup)
		var err error
		timed(root, spanFacadeCompile, func() { r.eng, err = compileEngine(inst) })
		if err == nil {
			r.pl, err = buildPipeline(inst, root)
		}
		root.End()
		if err != nil {
			return nil, fmt.Errorf("set-up replay: %w", err)
		}
	}
	r.setupMetrics()
	var err error
	if r.plan, err = resolvePlan(r.eng, r.pl, inst.payloads[0].inputs[0]); err != nil {
		return nil, fmt.Errorf("plan probe: %w", err)
	}
	if r.t, err = setup(inst); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The untraced driver is the correctness gate and the warm-up.
	r.d = newDriver(r.t, inst.payloads, 1)
	r.d.traverse(true, nil)

	if err := r.probes(); err != nil {
		return nil, err
	}
	if ht, ok := r.t.(*httpTarget); ok {
		if err := r.load(ht, cfg.window/4); err != nil {
			return nil, err
		}
	}

	// Bring the replay state (the replay's own DFA cache) to where the
	// engine's is, off the record (a nil parent records nothing). Then
	// alternate untraced and traced traversals, so that the two op times
	// behind bench.trace_overhead_share see the same machine.
	for _, p := range inst.payloads {
		r.replay(nil, p, sunder.Stats{}, &opCount{})
	}
	var dfaBefore dfa.Stats
	if r.pl.runner != nil {
		dfaBefore = r.pl.runner.Stats()
	}
	untraced := make([][]float64, len(inst.payloads)) // op times by payload, ns
	for start := time.Now(); len(r.counts) == 0 || (time.Since(start) < cfg.window/2 && len(r.counts) < maxTracedOps); {
		i := 0
		r.d.traverse(false, func(op func()) {
			opStart := time.Now()
			op()
			untraced[i] = append(untraced[i], float64(time.Since(opStart).Nanoseconds()))
			i++
		})
		for _, p := range inst.payloads {
			r.tracedOp(p)
		}
	}
	if n := r.tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("span buffer full: %d spans dropped", n)
	}
	r.opMetrics(dfaBefore, untraced)

	if jsonl != nil {
		if err := r.writeJSONL(jsonl); err != nil {
			return nil, err
		}
	}
	res := &result{
		values:    r.out,
		attempted: r.d.attempted,
		failed:    r.d.failed,
		samples:   len(r.counts),
		plan:      r.t.plan(),
		firstErr:  r.d.firstErr,
	}
	return res, r.t.close()
}

// tracedOp is one op under a span, then the replay of its payload.
func (r *tracedRun) tracedOp(p *payload) {
	attr := fmt.Sprintf("workload=%s op=%d", r.inst.spec.name, len(r.counts))
	st, _ := r.t.(*streamTarget)
	sp := r.tr.Root(spanOp)
	sp.SetAttr(attr)
	if st != nil {
		st.parent = sp
	}
	stats, err := r.t.op(p, false)
	sp.End()
	if st != nil {
		st.parent = nil
	}
	r.d.note(err)
	c := opCount{bytes: p.bytes, matches: p.matches, stats: stats}
	r.replay(sp, p, stats, &c)
	r.counts = append(r.counts, c)
}

// replay sends the payload through the plan's layers, one exported call at
// a time. A nil parent records nothing.
func (r *tracedRun) replay(parent *telemetry.SpanCtx, p *payload, stats sunder.Stats, c *opCount) {
	pl := r.pl
	for _, in := range p.inputs {
		if r.plan.prefilter {
			timed(parent, spanPrefilterScan, func() { pl.scanner.Scan(in, func(int, int) {}) })
		}
		if r.plan.core {
			var units []funcsim.Unit
			timed(parent, spanExpand, func() { units = funcsim.BytesToUnits(in, 4) })
			// A prefiltered op that skipped every cycle never ran the core.
			if !r.plan.prefilter || stats.KernelCycles > 0 {
				timed(parent, spanCoreRun, func() {
					pl.machine.Reset()
					c.replayCycles += pl.machine.Run(units, core.RunOptions{RecordEvents: true}).KernelCycles
				})
			}
		}
		if r.plan.dfa {
			timed(parent, spanDFAStep, func() { pl.stepDFA(in) })
		}
	}
	if ht, ok := r.t.(*httpTarget); ok && parent != nil {
		r.replayHTTP(ht, parent, p, c)
	}
}

// replayHTTP takes the op apart on the server side of the wire: the
// handler without a socket, its JSON halves, the batch scan in process, and
// the raw-body route on the same bytes.
func (r *tracedRun) replayHTTP(ht *httpTarget, parent *telemetry.SpanCtx, p *payload, c *opCount) {
	handler := ht.srv.Handler()
	path := "/rulesets/" + httpRulesetID + "/scan"
	serve := func(span, url, contentType string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		timed(parent, span, func() { handler.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			r.d.note(fmt.Errorf("%s replay: status %d", span, rec.Code))
		}
		return rec
	}
	rec := serve(spanHandler, path, "application/json", p.body)
	c.responseLen = int64(rec.Body.Len())

	var err error
	var inputs [][]byte
	timed(parent, spanJSONDecode, func() {
		var req server.ScanRequest
		if err = json.Unmarshal(p.body, &req); err == nil {
			inputs, err = req.DecodeInputs()
		}
	})
	if err == nil {
		timed(parent, spanScanBatch, func() {
			_, err = r.eng.ScanBatch(inputs, sunder.ScanOptions{Workers: runtime.GOMAXPROCS(0)})
		})
	}
	var resp server.ScanResponse
	if err == nil {
		err = json.Unmarshal(rec.Body.Bytes(), &resp)
	}
	if err == nil {
		timed(parent, spanJSONEncode, func() { _, err = json.Marshal(&resp) })
	}
	if err != nil {
		r.d.note(fmt.Errorf("http replay: %w", err))
	}
	serve(spanRawBody, path+"?parallel=1", "application/octet-stream", bytes.Join(p.inputs, nil))
}

// load is http_batch's contended phase: every closed-loop client at once,
// for the client-side tail and the server's own view of the same requests.
func (r *tracedRun) load(ht *httpTarget, dur time.Duration) error {
	ht.srv.ResetRequestMetrics()
	ld := newDriver(ht, r.inst.payloads, httpClients())
	var lat []float64
	for _, p := range ld.runFor(dur, 0) {
		lat = append(lat, p.latMS...)
	}
	r.out["server.http_p99_ms"] = quantile(lat, 0.99)
	r.d.merge(&ld.tally)

	req, err := http.NewRequest(http.MethodGet, ht.base+"/metrics?format=json", nil)
	if err != nil {
		return err
	}
	var m server.MetricsJSON
	if err := ht.do(req, http.StatusOK, &m); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	rs := m.Rulesets[httpRulesetID]
	r.out["server.pool_wait_share"] = rs.PoolWaitShare
	r.out["server.shed_total"] = float64(rs.Shed.Capacity + rs.Shed.Deadline + rs.Shed.Draining)
	r.out["server.srv_p99_ms"] = float64(rs.Latency.P99NS) / 1e6
	return nil
}

// probes measures, once per run and on a few payloads, the layer functions
// that are not part of every op: expansion and machine housekeeping costs,
// the active-set size, and the sharded paths nothing routes to by default.
func (r *tracedRun) probes() error {
	pl := r.pl
	var inputs [][]byte
	for _, p := range r.inst.payloads[:min(probePayloads, len(r.inst.payloads))] {
		inputs = append(inputs, p.inputs[0])
	}
	nproc := runtime.GOMAXPROCS(0)

	var before, after runtime.MemStats
	var nbytes int
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, in := range inputs {
		funcsim.BytesToUnits(in, 4)
		nbytes += len(in)
	}
	expand := time.Since(start)
	runtime.ReadMemStats(&after)
	r.out["funcsim.expand_ns_per_byte"] = float64(expand.Nanoseconds()) / float64(nbytes)
	r.out["funcsim.expand_alloc_bytes_per_byte"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(nbytes)

	var resets, clones []float64
	for i := 0; i < 16; i++ {
		start := time.Now()
		pl.machine.Reset()
		resets = append(resets, float64(time.Since(start).Nanoseconds()))
		start = time.Now()
		pl.proto.Clone()
		clones = append(clones, float64(time.Since(start).Nanoseconds()))
	}
	r.out["core.reset_ns"] = median(resets)
	r.out["core.clone_ns"] = median(clones)

	// Active-set size, sampled every 256 cycles of one input.
	rate := pl.proto.Config().Rate
	units := funcsim.PadUnits(funcsim.BytesToUnits(inputs[0], 4), rate)
	pl.machine.Reset()
	var scratch, active []automata.StateID
	var activeSum, activeSamples int
	for off, cycle := 0, 0; off < len(units); off, cycle = off+rate, cycle+1 {
		scratch = pl.machine.Step(units[off:off+rate], scratch[:0])
		if cycle%256 == 0 {
			active = pl.machine.ActiveStates(active[:0])
			activeSum += len(active)
			activeSamples++
		}
	}
	r.out["core.active_states_mean"] = float64(activeSum) / float64(activeSamples)

	var runNS, shards, warmup, scanMBps []float64
	for i, in := range inputs {
		units := funcsim.BytesToUnits(in, 4)
		start := time.Now()
		rr := sched.ParallelRun(pl.proto, pl.ua, units, sched.RunConfig{Workers: nproc, RecordEvents: true})
		dt := time.Since(start)
		runNS = append(runNS, float64(dt.Nanoseconds())/float64(rr.KernelCycles))
		shards = append(shards, float64(max(rr.Workers, 1)))
		warmup = append(warmup, float64(rr.WarmupCycles)/float64(rr.KernelCycles+rr.WarmupCycles))

		start = time.Now()
		res, err := r.eng.ScanParallel(in, sunder.ScanOptions{Workers: nproc})
		dt = time.Since(start)
		if err == nil && int64(len(res.Matches)) != r.inst.payloads[i].refs[0].count {
			err = fmt.Errorf("%d matches, oracle has %d", len(res.Matches), r.inst.payloads[i].refs[0].count)
		}
		if err != nil {
			return fmt.Errorf("ScanParallel probe: %w", err)
		}
		scanMBps = append(scanMBps, float64(len(in))/1e6/dt.Seconds())
	}
	r.out["sched.parallel_run_ns_per_cycle"] = median(runNS)
	r.out["sched.shards"] = median(shards)
	r.out["sched.warmup_cycle_share"] = median(warmup)
	r.out["sched.parallel_scan_mbps"] = median(scanMBps)
	return nil
}

// children groups spans by parent.
func children(spans []telemetry.Span) map[uint64][]telemetry.Span {
	out := make(map[uint64][]telemetry.Span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			out[sp.Parent] = append(out[sp.Parent], sp)
		}
	}
	return out
}

// setupMetrics turns the setup spans into the layers' compile times:
// medians over the replays. The facade's self time is its compile span
// minus the layer calls replayed beside it.
func (r *tracedRun) setupMetrics() {
	spans := r.tr.Spans()
	kids := children(spans)
	byName := make(map[string][]float64)
	var self []float64
	for _, root := range spans {
		if root.Name != spanSetup {
			continue
		}
		var facade, layers float64
		for _, k := range kids[root.ID] {
			s := float64(k.Dur) / 1e9
			byName[k.Name] = append(byName[k.Name], s)
			if k.Name == spanFacadeCompile {
				facade = s
			} else {
				layers += s
			}
		}
		self = append(self, facade-layers)
	}
	for name, xs := range byName {
		r.out[name+"_s"] = median(xs)
	}
	r.out["facade.compile_self_s"] = median(self)
	r.out["transform.device_states"] = float64(r.pl.deviceStates)
	r.out["analysis.symbol_classes"] = float64(r.pl.classes)
	r.out["analysis.merged_states"] = float64(r.pl.merged)
	r.out["mapping.pus"] = float64(r.pl.pus)
	r.out["prefilter.literals"] = float64(r.pl.literals)
}

// opMetrics turns the op spans and boundary counts into the run-time layer
// metrics. Shares are over the summed op spans; a layer's time is what its
// replay took, and the facade's self time is the op minus its layers.
func (r *tracedRun) opMetrics(dfaBefore dfa.Stats, untraced [][]float64) {
	spans := r.tr.Spans()
	kids := children(spans)
	sum := make(map[string]float64)    // span name -> total ns
	each := make(map[string][]float64) // span name -> each duration, ns
	var opNS, coreNS, layerNS float64  // core scaled to the cycles the op executed
	var total, first opCount
	var opMS []float64
	traced := make([][]float64, len(untraced)) // op spans by payload, ns
	i := 0
	for _, op := range spans {
		if op.Name != spanOp {
			continue
		}
		c := r.counts[i]
		traced[i%len(traced)] = append(traced[i%len(traced)], float64(op.Dur))
		i++
		opNS += float64(op.Dur)
		opMS = append(opMS, float64(op.Dur)/1e6)
		for _, k := range kids[op.ID] {
			d := float64(k.Dur)
			sum[k.Name] += d
			each[k.Name] = append(each[k.Name], d)
			switch k.Name {
			case spanCoreRun:
				if r.plan.prefilter && c.replayCycles > 0 {
					d *= float64(c.stats.KernelCycles) / float64(c.replayCycles)
				}
				coreNS += d
				layerNS += d
			case spanExpand, spanDFAStep, spanPrefilterScan:
				layerNS += d
			}
		}
		total.bytes += c.bytes
		total.replayCycles += c.replayCycles
		total.responseLen += c.responseLen
		// Counts are reported for the first traversal, so that they repeat
		// exactly however many traversals the time budget allowed.
		if i <= len(r.inst.payloads) {
			first.bytes += c.bytes
			first.matches += c.matches
			addStats(&first.stats, c.stats)
		}
	}
	ops := float64(len(r.counts))
	traversals := ops / float64(len(r.inst.payloads))
	nbytes := float64(total.bytes)

	out := r.out
	// The untraced and the traced traversals sent the same ops; compare
	// each payload's median time.
	var untracedNS, tracedNS float64
	for i := range traced {
		untracedNS += median(untraced[i])
		tracedNS += median(traced[i])
	}
	out["bench.trace_overhead_share"] = 1 - untracedNS/tracedNS
	if total.replayCycles > 0 {
		out["core.run_ns_per_cycle"] = sum[spanCoreRun] / float64(total.replayCycles)
	}
	out["core.run_share"] = coreNS / opNS
	out["core.kernel_cycles"] = float64(first.stats.KernelCycles)
	out["core.stall_cycles"] = float64(first.stats.StallCycles)
	out["core.flushes"] = float64(first.stats.Flushes)
	out["core.reports"] = float64(first.stats.Reports)
	out["core.report_cycles"] = float64(first.stats.ReportCycles)

	out["dfa.step_ns_per_byte"] = sum[spanDFAStep] / nbytes
	out["dfa.step_share"] = sum[spanDFAStep] / opNS
	if r.plan.dfa {
		s := r.pl.runner.Stats()
		hits, misses := s.Hits-dfaBefore.Hits, s.Misses-dfaBefore.Misses
		if hits+misses > 0 {
			out["dfa.hit_rate"] = float64(hits) / float64(hits+misses)
		}
		out["dfa.states"] = float64(s.States)
		// Per traversal of the payload list.
		out["dfa.misses"] = float64(misses) / traversals
		out["dfa.evictions"] = float64(s.Evictions-dfaBefore.Evictions) / traversals
		out["dfa.fallbacks"] = float64(s.Fallbacks-dfaBefore.Fallbacks) / traversals
	}

	out["prefilter.scan_ns_per_byte"] = sum[spanPrefilterScan] / nbytes
	out["prefilter.scan_share"] = sum[spanPrefilterScan] / opNS
	out["prefilter.windows_per_mb"] = float64(first.stats.PrefilterWindows) / (float64(first.bytes) / 1e6)
	if cycles := first.stats.KernelCycles + first.stats.SkippedCycles; cycles > 0 {
		out["prefilter.skipped_cycle_share"] = float64(first.stats.SkippedCycles) / float64(cycles)
	}

	// Over HTTP the facade's op is the batch scan, replayed in process.
	facadeNS := opNS
	if _, ok := r.t.(*httpTarget); ok {
		facadeNS = sum[spanScanBatch]
	}
	out["facade.scan_self_ns_per_byte"] = (facadeNS - layerNS) / nbytes
	out["facade.matches_per_kb"] = float64(first.matches) / (float64(first.bytes) / 1024)
	out["facade.stream_write_p50_us"] = median(each[spanStreamWrite]) / 1e3
	out["facade.stream_close_us"] = median(each[spanStreamClose]) / 1e3
	out["facade.batch_ns_per_op"] = median(each[spanScanBatch])
	out["facade.op_p90_ms"] = quantile(opMS, 0.9)

	if _, ok := r.t.(*httpTarget); ok {
		out["server.handler_ns_per_op"] = median(each[spanHandler])
		out["server.wire_ns_per_op"] = median(opMS)*1e6 - out["server.handler_ns_per_op"]
		out["server.json_decode_ns_per_op"] = median(each[spanJSONDecode])
		out["server.json_encode_ns_per_op"] = median(each[spanJSONEncode])
		out["server.raw_body_ns_per_op"] = median(each[spanRawBody])
		out["server.response_bytes_per_op"] = float64(total.responseLen) / ops
	}
}

// writeJSONL writes a header line naming the workload, the spans, then one
// line of boundary counts per op. Span ids and start times are the
// tracer's own, so in a file that holds several workloads they count from
// the header above them.
func (r *tracedRun) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := map[string]any{"workload": r.inst.spec.name, "spans": len(r.tr.Spans()), "ops": len(r.counts)}
	if err := enc.Encode(header); err != nil {
		return err
	}
	if err := r.tr.WriteJSONL(w); err != nil {
		return err
	}
	for i, c := range r.counts {
		line := map[string]any{
			"workload": r.inst.spec.name, "op": i, "bytes": c.bytes, "matches": c.matches,
			"kernel_cycles": c.stats.KernelCycles, "stall_cycles": c.stats.StallCycles,
			"flushes": c.stats.Flushes, "reports": c.stats.Reports, "report_cycles": c.stats.ReportCycles,
			"prefilter_windows": c.stats.PrefilterWindows, "skipped_cycles": c.stats.SkippedCycles,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
