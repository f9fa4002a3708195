// Package server is the network scan service: the Sunder engine behind a
// stdlib-only net/http API, the deployment mode of the paper's motivating
// scenario (network intrusion detection over live traffic).
//
// Rule sets are managed as named resources (PUT/GET/DELETE /rulesets/{id})
// compiled through the process-wide CompileCached LRU, each served by one
// engine behind an admission semaphore that bounds the requests running on
// it at once. Scanning dispatches through the library's concurrent paths —
// ScanBatch for batched inputs, ScanParallel for one large input — and a
// chunked streaming endpoint delivers matches as NDJSON while input is
// still arriving, backed by Stream. Device telemetry aggregates across
// every ruleset's engine into /metrics, pprof is wired under
// /debug/pprof/, and Drain ends live streams at a chunk boundary so the
// process can shut down gracefully.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunder"
	"sunder/internal/telemetry"
)

// RetryAfterHeader is the standard header set on every 503 shed response,
// telling well-behaved clients how many seconds to back off before
// retrying this node.
const RetryAfterHeader = "Retry-After"

// Config tunes the service. The zero value serves with sensible defaults.
type Config struct {
	// PoolSize is the number of requests per ruleset that run on its
	// engine at once (default GOMAXPROCS): scans and streams alike.
	PoolSize int
	// QueueDepth is how many requests may wait for a slot beyond the pool
	// size before requests are shed with 503 (default 4×PoolSize;
	// negative means no queue — shed as soon as every slot is busy).
	QueueDepth int
	// ScanWorkers bounds the worker goroutines of one batched or parallel
	// scan request (default GOMAXPROCS).
	ScanWorkers int
	// MaxBodyBytes caps request bodies, scan inputs included
	// (default 16 MiB).
	MaxBodyBytes int64
	// ScanTimeout bounds one scan request from acquisition to completion
	// (default 30s); DrainTimeout bounds graceful shutdown in Run
	// (default 10s).
	ScanTimeout  time.Duration
	DrainTimeout time.Duration
	// Logger receives structured request and lifecycle logs
	// (default slog.Default()).
	Logger *slog.Logger
	// TraceSampleEvery enables request tracing when > 0: every Nth scan,
	// stream or ruleset-upload request records a wall-clock span tree
	// (request root, pool-wait / compile / scan children, per-shard
	// scheduler spans), and the device cycle tracer is armed so GET /trace
	// can export both on one merged Chrome trace timeline. 1 traces every
	// request; 0 (the default) disables tracing entirely — the span
	// instrumentation sites reduce to nil no-ops.
	TraceSampleEvery int
	// TraceCapacity caps buffered spans (default 64k); spans beyond it are
	// counted as dropped on /metrics.
	TraceCapacity int
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.PoolSize
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.ScanWorkers <= 0 {
		c.ScanWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.ScanTimeout <= 0 {
		c.ScanTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// scanBackends is the closed set of execution backends a served scan can
// resolve to, in the order the text metrics print them.
var scanBackends = [...]string{"nfa", "dfa"}

// ruleset is one compiled rule set being served.
type ruleset struct {
	id   string
	req  RulesetRequest
	info sunder.Info
	// backend is the resolved backend's canonical name ("nfa" or "dfa") —
	// the first token of Info.Backend, which carries the auto rationale
	// behind it. Every scan this ruleset serves is attributed to
	// it on the per-backend /metrics counters.
	backend string
	// eng serves every request of the ruleset; pool admits them.
	eng     *sunder.Engine
	pool    *admission
	scans   atomic.Int64
	bytes   atomic.Int64
	matches atomic.Int64

	// Server-side latency SLO instruments, always on (one clock read per
	// request): lat is end-to-end handler latency of served scan/stream
	// requests, wait the pool-acquisition wait of every successful
	// acquire. waitNS/servedNS accumulate over served requests only, so
	// waitNS/servedNS is the pool-wait share of served time — the
	// queueing-delay fraction of the server-side latency.
	lat      *telemetry.Histogram
	wait     *telemetry.Histogram
	waitNS   atomic.Int64
	servedNS atomic.Int64
	// Shed counters, by reason: capacity (pool queue full, 503), deadline
	// (timed out waiting for a slot, 504), draining (rejected during
	// graceful shutdown, 503).
	shedCapacity telemetry.Counter
	shedDeadline telemetry.Counter
	shedDraining telemetry.Counter
}

// Server is the scan service. Create with New, expose via Handler or Run.
type Server struct {
	cfg Config
	log *slog.Logger
	tel *sunder.Telemetry
	// spans is the request span tracer (nil unless Config.TraceSampleEvery
	// > 0); nil is a valid no-op tracer, so handlers instrument
	// unconditionally.
	spans *telemetry.SpanTracer
	// compileNS is the PUT /rulesets compile-path latency (cache hits and
	// misses both; the compile-cache hit/miss split is on /metrics).
	compileNS *telemetry.Histogram
	mux       *http.ServeMux

	mu       sync.RWMutex
	rulesets map[string]*ruleset

	draining  chan struct{}
	drainOnce sync.Once

	// Service-level counters, exported on /metrics.
	requests      atomic.Int64
	scans         atomic.Int64
	scanBytes     atomic.Int64
	matches       atomic.Int64
	errors        atomic.Int64
	activeStreams atomic.Int64
	// backendScans counts served scans by resolved backend, one slot per
	// scanBackends entry, in its order.
	backendScans [len(scanBackends)]atomic.Int64
}

// noteBackendScans attributes n served scans to a ruleset's backend.
func (s *Server) noteBackendScans(backend string, n int64) {
	for i, name := range scanBackends {
		if name == backend {
			s.backendScans[i].Add(n)
			return
		}
	}
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	telOpts := sunder.TelemetryOptions{}
	if cfg.TraceSampleEvery > 0 {
		telOpts.Trace = true
		telOpts.Spans = true
		telOpts.SpanCapacity = cfg.TraceCapacity
		telOpts.SpanSampleEvery = cfg.TraceSampleEvery
	}
	tel := sunder.NewTelemetry(telOpts)
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		tel:       tel,
		spans:     tel.Spans(),
		compileNS: telemetry.NewHistogram(telemetry.DurationBounds()),
		mux:       http.NewServeMux(),
		rulesets:  make(map[string]*ruleset),
		draining:  make(chan struct{}),
	}
	s.mux.HandleFunc("PUT /rulesets/{id}", s.handlePutRuleset)
	s.mux.HandleFunc("GET /rulesets/{id}", s.handleGetRuleset)
	s.mux.HandleFunc("DELETE /rulesets/{id}", s.handleDeleteRuleset)
	s.mux.HandleFunc("GET /rulesets", s.handleListRulesets)
	s.mux.HandleFunc("POST /rulesets/{id}/scan", s.handleScan)
	s.mux.HandleFunc("POST /rulesets/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's root handler: the route mux behind the
// structured request-logging middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := time.Now()
		lw := &logWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(lw, r)
		if lw.status >= 400 {
			s.errors.Add(1)
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", lw.status,
			"bytes_out", lw.bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// Drain signals every live stream to finish at its next chunk boundary.
// It is idempotent and does not block; pair it with http.Server.Shutdown
// (or use Run, which sequences both).
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Run serves on the listener until ctx is canceled, then drains streams
// and shuts the HTTP server down gracefully, waiting up to DrainTimeout
// for in-flight requests. It returns nil on a clean shutdown.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	s.log.Info("serving", "addr", ln.Addr().String())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Drain()
	s.log.Info("draining", "timeout", s.cfg.DrainTimeout.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.log.Info("stopped")
	return nil
}

// logWriter captures status and byte count for the request log while
// forwarding Flush, which the streaming endpoint depends on.
type logWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *logWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *logWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *logWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer, which
// the streaming endpoint needs for EnableFullDuplex.
func (w *logWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ---------------------------------------------------------------------------
// Rule-set management

func (s *Server) handlePutRuleset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Draining() {
		s.writeShed(w, s.cfg.retryAfterDraining(), "draining")
		return
	}
	var req RulesetRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decode ruleset: %v", err))
		return
	}
	if len(req.Patterns) == 0 {
		s.writeError(w, http.StatusBadRequest, "ruleset has no patterns")
		return
	}
	// The compile-cache keys on every compile-affecting Options field
	// (Minimize included), so re-uploading an identical ruleset — or the same
	// rules under a different id — costs a new engine over the cached
	// artifact, not a compile.
	sp := s.spans.Root("put_ruleset")
	sp.SetAttr(`ruleset="` + id + `"`)
	defer sp.End()
	csp := sp.Child("compile")
	compileStart := time.Now()
	eng, hit, err := sunder.CompileCachedTraced(req.SunderPatterns(), req.Options.Options())
	s.compileNS.Observe(time.Since(compileStart).Nanoseconds())
	csp.SetAttr("hit=" + strconv.FormatBool(hit))
	csp.End()
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("compile: %v", err))
		return
	}
	info := eng.Info()
	backend := "nfa"
	if f := strings.Fields(info.Backend); len(f) > 0 {
		backend = f[0]
	}
	eng.SetTelemetry(s.tel)
	rs := &ruleset{
		id:      id,
		req:     req,
		info:    info,
		backend: backend,
		eng:     eng,
		pool:    newAdmission(s.cfg.PoolSize, s.cfg.QueueDepth),
		lat:     telemetry.NewHistogram(telemetry.DurationBounds()),
		wait:    telemetry.NewHistogram(telemetry.DurationBounds()),
	}
	s.mu.Lock()
	_, replaced := s.rulesets[id]
	s.rulesets[id] = rs
	s.mu.Unlock()
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	s.log.Info("ruleset compiled", "id", id, "patterns", len(req.Patterns),
		"device_states", rs.info.DeviceStates, "pruned_states", rs.info.PrunedStates,
		"pool", s.cfg.PoolSize, "replaced", replaced)
	s.writeJSON(w, status, rs.infoJSON())
}

func (s *Server) handleGetRuleset(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such ruleset")
		return
	}
	s.writeJSON(w, http.StatusOK, rs.infoJSON())
}

func (s *Server) handleDeleteRuleset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.rulesets[id]
	delete(s.rulesets, id)
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such ruleset")
		return
	}
	// In-flight requests hold their own ruleset references and finish
	// normally; the ruleset and its engine are garbage once they drain.
	s.log.Info("ruleset deleted", "id", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListRulesets(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make([]RulesetInfo, 0, len(s.rulesets))
	for _, rs := range s.rulesets {
		out = append(out, rs.infoJSON())
	}
	s.mu.RUnlock()
	s.writeJSON(w, http.StatusOK, map[string][]RulesetInfo{"rulesets": out})
}

func (rs *ruleset) infoJSON() RulesetInfo {
	return RulesetInfo{
		ID:       rs.id,
		Patterns: len(rs.req.Patterns),
		Options:  rs.req.Options,
		Info:     infoJSON(rs.info),
		Pool:     rs.pool.stats(),
		Scans:    rs.scans.Load(),
		Bytes:    rs.bytes.Load(),
	}
}

func (s *Server) lookup(id string) (*ruleset, bool) {
	s.mu.RLock()
	rs, ok := s.rulesets[id]
	s.mu.RUnlock()
	return rs, ok
}

// ---------------------------------------------------------------------------
// Scanning

// handleScan serves POST /rulesets/{id}/scan. A JSON body carries a batch
// of independent inputs dispatched through ScanBatch; any other body is
// one raw input, scanned sequentially or — with ?parallel=1 — sharded
// across workers via ScanParallel. Results are identical to library Scan
// calls on the same inputs.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rs, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such ruleset")
		return
	}
	sp := s.spans.Root("scan")
	defer sp.End()
	if s.Draining() {
		rs.shedDraining.Inc()
		s.writeShed(w, s.cfg.retryAfterDraining(), "draining")
		return
	}
	body, err := readScanBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		strings.HasPrefix(r.Header.Get("Content-Type"), "application/json"))
	if err != nil {
		s.writeError(w, s.bodyErrStatus(err), err.Error())
		return
	}
	inputs := body.inputs
	if len(inputs) == 0 {
		body.release()
		s.writeError(w, http.StatusBadRequest, "no inputs")
		return
	}
	var nbytes int64
	for _, in := range inputs {
		nbytes += int64(len(in))
	}
	sp.SetAttr(`ruleset="` + rs.id + `" inputs=` + strconv.Itoa(len(inputs)))

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ScanTimeout)
	defer cancel()
	waitDur, ok := s.admit(ctx, w, rs, sp)
	if !ok {
		body.release()
		return
	}
	parallel := r.URL.Query().Get("parallel") != "" && len(inputs) == 1

	// The scan itself is not cancellable mid-run; run it on a goroutine so
	// the request can still observe its deadline, and free the slot and
	// return the body the inputs alias to its pool only once the work has
	// finished: a 504 returns while the scan still reads them, so from here
	// on the handler touches neither.
	type outcome struct {
		results []*sunder.ScanResult
		err     error
	}
	done := make(chan outcome, 1)
	ssp := sp.Child("scan")
	go func() {
		defer rs.pool.release()
		defer body.release()
		var o outcome
		if parallel {
			var res *sunder.ScanResult
			res, o.err = rs.eng.ScanParallel(inputs[0], sunder.ScanOptions{Workers: s.cfg.ScanWorkers})
			o.results = []*sunder.ScanResult{res}
		} else {
			o.results, o.err = rs.eng.ScanBatch(inputs, sunder.ScanOptions{Workers: s.cfg.ScanWorkers})
		}
		done <- o
	}()
	select {
	case <-ctx.Done():
		ssp.End()
		s.writeError(w, http.StatusGatewayTimeout, "scan timed out")
		return
	case o := <-done:
		ssp.End()
		if o.err != nil {
			status := http.StatusInternalServerError
			if errors.Is(o.err, sunder.ErrCycleRangeExceeded) {
				// The ruleset's own options.metadata_bits refuses the input.
				status = http.StatusUnprocessableEntity
			}
			s.writeError(w, status, fmt.Sprintf("scan: %v", o.err))
			return
		}
		resp := ScanResponse{Ruleset: rs.id, Results: make([]ScanResultJSON, len(o.results))}
		var nmatches int64
		for i, res := range o.results {
			nmatches += int64(len(res.Matches))
			resp.Results[i] = ScanResultJSON{Matches: matchesJSON(res.Matches), Stats: statsJSON(res.Stats)}
		}
		s.served(rs, int64(len(inputs)), nbytes, nmatches, start, waitDur)
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// streamChunkSize is the read granularity of the streaming endpoint:
// matches are flushed to the client at least this often.
const streamChunkSize = 64 << 10

// handleStream serves POST /rulesets/{id}/stream: the chunked request body
// flows through a Stream on the ruleset's engine, and matches are written
// back as NDJSON StreamEvent lines as they occur. The final line carries
// the device statistics; on Drain the stream ends early at a chunk
// boundary with reason "draining".
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rs, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such ruleset")
		return
	}
	sp := s.spans.Root("stream")
	sp.SetAttr(`ruleset="` + rs.id + `"`)
	defer sp.End()
	if s.Draining() {
		rs.shedDraining.Inc()
		s.writeShed(w, s.cfg.retryAfterDraining(), "draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ScanTimeout)
	defer cancel()
	waitDur, ok := s.admit(ctx, w, rs, sp)
	if !ok {
		return
	}
	defer rs.pool.release()

	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)

	// This handler writes matches while the request body is still arriving.
	// Go's HTTP/1.1 server is half-duplex by default: the first response
	// flush drains the unread request body before sending headers, which
	// against a live traffic source blocks forever (and steals input from
	// the scan). Full duplex is exactly the contract we want.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("full-duplex: %v", err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	var matches int64
	stream, err := rs.eng.NewStream(func(m sunder.Match) {
		matches++
		// Write errors surface on the next chunk's flush; matches are
		// delivered from Stream.Write on this goroutine, so enc is safe.
		_ = enc.Encode(StreamEvent{Match: &MatchJSON{Position: m.Position, Code: m.Code}})
	})
	if err != nil {
		// Headers are sent; all we can do is report in-band.
		_ = enc.Encode(StreamEvent{Done: true, Reason: fmt.Sprintf("stream: %v", err)})
		return
	}

	reason := ""
	buf := make([]byte, streamChunkSize)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	scanSp := sp.Child("scan_stream")
read:
	for {
		select {
		case <-s.draining:
			reason = "draining"
			break read
		case <-r.Context().Done():
			reason = "client gone"
			break read
		default:
		}
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := stream.Write(buf[:n]); werr != nil {
				reason = fmt.Sprintf("stream: %v", werr)
				break read
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			break read
		}
		if err != nil {
			reason = fmt.Sprintf("read: %v", err)
			break read
		}
	}
	scanSp.End()
	dsp := sp.Child("drain")
	dsp.SetAttr(`reason="` + reason + `"`)
	stats := stream.Close()
	dsp.End()
	s.served(rs, 1, stream.BytesIn(), matches, start, waitDur)
	st := statsJSON(stats)
	_ = enc.Encode(StreamEvent{Done: true, Reason: reason, Bytes: stream.BytesIn(), Stats: &st})
	if flusher != nil {
		flusher.Flush()
	}
}

// ---------------------------------------------------------------------------
// Observability

// handleMetrics writes the service counters, the compile-cache statistics,
// the per-ruleset latency SLO summaries and shed counters, and the device
// counters aggregated across every ruleset's engine, in the same flat text
// format as Telemetry.WriteMetrics. With ?format=json it writes the same
// snapshot as a MetricsJSON document, the machine-readable form the load
// generator consumes for its server-side SLO columns.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.writeJSON(w, http.StatusOK, s.metricsJSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.RLock()
	nRulesets := len(s.rulesets)
	ids := make([]string, 0, nRulesets)
	byID := make(map[string]*ruleset, nRulesets)
	for id, rs := range s.rulesets {
		ids = append(ids, id)
		byID[id] = rs
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	fmt.Fprintf(w, "server_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "server_scans_total %d\n", s.scans.Load())
	fmt.Fprintf(w, "server_scan_bytes_total %d\n", s.scanBytes.Load())
	fmt.Fprintf(w, "server_matches_total %d\n", s.matches.Load())
	fmt.Fprintf(w, "server_errors_total %d\n", s.errors.Load())
	fmt.Fprintf(w, "server_active_streams %d\n", s.activeStreams.Load())
	fmt.Fprintf(w, "server_rulesets %d\n", nRulesets)
	// Per-backend scan volume and its share of all served scans. The share
	// is division-guarded: a service that has served nothing yet reports 0
	// for every backend, never NaN.
	var backendTotal int64
	for i := range scanBackends {
		backendTotal += s.backendScans[i].Load()
	}
	for i, name := range scanBackends {
		n := s.backendScans[i].Load()
		share := 0.0
		if backendTotal > 0 {
			share = float64(n) / float64(backendTotal)
		}
		fmt.Fprintf(w, "server_backend_scans_total{backend=%q} %d\n", name, n)
		fmt.Fprintf(w, "server_backend_scan_share{backend=%q} %g\n", name, share)
	}
	// Certified-minimization aggregates across resident rulesets: how many
	// were compiled with Options.Minimize, and the states the pipeline
	// pruned and merged for them.
	var minRulesets, minPruned, minMerged int
	for _, id := range ids {
		info := byID[id].info
		if info.SymbolClasses == 0 {
			continue
		}
		minRulesets++
		minPruned += info.PrunedStates
		minMerged += info.MergedStates
	}
	fmt.Fprintf(w, "server_minimized_rulesets %d\n", minRulesets)
	fmt.Fprintf(w, "server_minimized_pruned_states %d\n", minPruned)
	fmt.Fprintf(w, "server_minimized_merged_states %d\n", minMerged)
	cc := sunder.CompileCacheInfo()
	fmt.Fprintf(w, "compile_cache_hits_total %d\n", cc.Hits)
	fmt.Fprintf(w, "compile_cache_misses_total %d\n", cc.Misses)
	fmt.Fprintf(w, "compile_cache_entries %d\n", cc.Entries)
	fmt.Fprintf(w, "compile_cache_hit_ns_total %d\n", cc.HitNS)
	fmt.Fprintf(w, "compile_cache_miss_ns_total %d\n", cc.MissNS)
	_ = telemetry.WriteLatencyText(w, "server_compile_ns", "", s.compileNS)
	for _, id := range ids {
		rs := byID[id]
		label := `ruleset="` + id + `"`
		_ = telemetry.WriteLatencyText(w, "server_scan_latency_ns", label, rs.lat)
		_ = telemetry.WriteLatencyText(w, "server_pool_wait_ns", label, rs.wait)
		// Pool-wait share of served time, division-guarded: a ruleset that
		// has served no scans reports 0, never NaN.
		served := rs.servedNS.Load()
		waitShare := 0.0
		if served > 0 {
			waitShare = float64(rs.waitNS.Load()) / float64(served)
		}
		fmt.Fprintf(w, "server_pool_wait_share{%s} %g\n", label, waitShare)
		fmt.Fprintf(w, "server_ruleset_backend_scans_total{%s,backend=%q} %d\n",
			label, rs.backend, rs.scans.Load())
		for _, shed := range []struct {
			reason string
			c      *telemetry.Counter
		}{
			{"capacity", &rs.shedCapacity},
			{"deadline", &rs.shedDeadline},
			{"draining", &rs.shedDraining},
		} {
			fmt.Fprintf(w, "server_shed_total{%s,reason=%q} %d\n", label, shed.reason, shed.c.Load())
		}
	}
	if s.spans != nil {
		buffered, dropped := s.tel.SpanStats()
		fmt.Fprintf(w, "server_spans_buffered %d\n", buffered)
		fmt.Fprintf(w, "server_spans_dropped_total %d\n", dropped)
	}
	_ = s.tel.WriteMetrics(w)
}

// metricsJSON snapshots the same population as the text view, with
// nearest-rank quantiles estimated from the per-ruleset log-bucket
// histograms (see telemetry.Histogram.Quantile for the error bound).
func (s *Server) metricsJSON() MetricsJSON {
	cc := sunder.CompileCacheInfo()
	s.mu.RLock()
	rulesets := make(map[string]RulesetMetricsJSON, len(s.rulesets))
	for id, rs := range s.rulesets {
		served := rs.servedNS.Load()
		share := 0.0
		if served > 0 {
			share = float64(rs.waitNS.Load()) / float64(served)
		}
		rulesets[id] = RulesetMetricsJSON{
			Scans:         rs.scans.Load(),
			Bytes:         rs.bytes.Load(),
			Matches:       rs.matches.Load(),
			Backend:       rs.backend,
			Latency:       latencySLO(rs.lat),
			PoolWait:      latencySLO(rs.wait),
			PoolWaitShare: share,
			Shed: ShedJSON{
				Capacity: rs.shedCapacity.Load(),
				Deadline: rs.shedDeadline.Load(),
				Draining: rs.shedDraining.Load(),
			},
		}
	}
	var minAgg *MinimizeMetricsJSON
	for _, rs := range s.rulesets {
		if rs.info.SymbolClasses == 0 {
			continue
		}
		if minAgg == nil {
			minAgg = &MinimizeMetricsJSON{}
		}
		minAgg.Rulesets++
		minAgg.PrunedStates += int64(rs.info.PrunedStates)
		minAgg.MergedStates += int64(rs.info.MergedStates)
	}
	nRulesets := len(s.rulesets)
	s.mu.RUnlock()
	var backendTotal int64
	for i := range scanBackends {
		backendTotal += s.backendScans[i].Load()
	}
	backends := make(map[string]BackendMetricsJSON, len(scanBackends))
	for i, name := range scanBackends {
		n := s.backendScans[i].Load()
		share := 0.0
		if backendTotal > 0 {
			share = float64(n) / float64(backendTotal)
		}
		backends[name] = BackendMetricsJSON{Scans: n, Share: share}
	}
	m := MetricsJSON{
		Service: ServiceMetricsJSON{
			Requests:      s.requests.Load(),
			Scans:         s.scans.Load(),
			ScanBytes:     s.scanBytes.Load(),
			Matches:       s.matches.Load(),
			Errors:        s.errors.Load(),
			ActiveStreams: s.activeStreams.Load(),
			Rulesets:      nRulesets,
		},
		CompileCache: CompileCacheJSON{
			Hits:     cc.Hits,
			Misses:   cc.Misses,
			Entries:  cc.Entries,
			Capacity: cc.Capacity,
			HitNS:    cc.HitNS,
			MissNS:   cc.MissNS,
		},
		Compile:  latencySLO(s.compileNS),
		Rulesets: rulesets,
		Backends: backends,
		Minimize: minAgg,
	}
	if scans := s.tel.CounterValue(sunder.MetricPrefilterScans); scans > 0 {
		m.Prefilter = &PrefilterMetricsJSON{
			Scans:         scans,
			Hits:          s.tel.CounterValue(sunder.MetricPrefilterHits),
			Windows:       s.tel.CounterValue(sunder.MetricPrefilterWindows),
			ScannedCycles: s.tel.CounterValue(sunder.MetricPrefilterScannedCycles),
			SkippedCycles: s.tel.CounterValue(sunder.MetricPrefilterSkippedCycles),
			Bailouts:      s.tel.CounterValue(sunder.MetricPrefilterBailouts),
		}
	}
	if s.spans != nil {
		buffered, dropped := s.tel.SpanStats()
		m.Spans = &SpanStatsJSON{Buffered: buffered, Dropped: dropped}
	}
	return m
}

// latencySLO summarizes a duration histogram into the wire form.
func latencySLO(h *telemetry.Histogram) LatencySLOJSON {
	out := LatencySLOJSON{
		Count:  h.Count(),
		MaxNS:  h.Max(),
		P50NS:  h.Quantile(0.50),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
	}
	if out.Count > 0 {
		out.MeanNS = h.Sum() / out.Count
	}
	return out
}

// handleTrace exports the request trace: by default one merged Chrome
// trace_event document (device cycle events on pid 0, wall-clock request
// spans on pid 1), loadable in chrome://tracing or Perfetto; with
// ?format=spans the raw spans as JSONL. 404 unless the server was started
// with tracing enabled (Config.TraceSampleEvery > 0).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		s.writeError(w, http.StatusNotFound, "tracing disabled: start with a trace sample rate (-trace-sample)")
		return
	}
	if r.URL.Query().Get("format") == "spans" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.tel.WriteSpansJSONL(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.tel.WriteMergedChromeTrace(w)
}

// ResetRequestMetrics zeroes every request-scoped instrument: service
// counters, per-ruleset latency and pool-wait histograms, shed counters,
// pool-wait share accumulators, the compile-path histogram and any
// buffered spans. Cumulative compile-cache statistics are process-wide and
// not reset. The benchmark's traced load phase calls it first, so the
// server-side quantiles it reads describe only that phase's requests.
func (s *Server) ResetRequestMetrics() {
	s.requests.Store(0)
	s.scans.Store(0)
	s.scanBytes.Store(0)
	s.matches.Store(0)
	s.errors.Store(0)
	for i := range s.backendScans {
		s.backendScans[i].Store(0)
	}
	s.compileNS.Reset()
	if s.spans != nil {
		s.spans.Reset()
	}
	s.mu.RLock()
	for _, rs := range s.rulesets {
		rs.scans.Store(0)
		rs.bytes.Store(0)
		rs.matches.Store(0)
		rs.lat.Reset()
		rs.wait.Reset()
		rs.waitNS.Store(0)
		rs.servedNS.Store(0)
		rs.shedCapacity.Reset()
		rs.shedDeadline.Reset()
		rs.shedDraining.Reset()
	}
	s.mu.RUnlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	if s.Draining() {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, map[string]any{"status": "ok", "draining": s.Draining()})
}

// ---------------------------------------------------------------------------
// Response helpers

// retryAfterCapacity and retryAfterDraining are the Retry-After hints on
// shed responses, in seconds. A capacity shed is transient — the pool queue
// was full this instant — so the hint is the minimum representable backoff;
// a draining shed means this node is going away for good, so the hint is
// the drain budget: by then the request belongs on another node (or the
// restarted process).
func (c Config) retryAfterCapacity() int { return 1 }

func (c Config) retryAfterDraining() int {
	secs := int((c.DrainTimeout + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeShed writes a 503 with a Retry-After hint.
func (s *Server) writeShed(w http.ResponseWriter, retryAfterSecs int, msg string) {
	w.Header().Set(RetryAfterHeader, strconv.Itoa(retryAfterSecs))
	s.writeError(w, http.StatusServiceUnavailable, msg)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("write response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}

// served counts a served request of rs that started at start, waited wait
// for its slot and scanned scans inputs of nbytes bytes in all, finding
// matches: the ruleset's, the backend's and the service's counters, and the
// ruleset's latency and pool-wait share.
func (s *Server) served(rs *ruleset, scans, nbytes, matches int64, start time.Time, wait time.Duration) {
	rs.scans.Add(scans)
	rs.bytes.Add(nbytes)
	rs.matches.Add(matches)
	s.noteBackendScans(rs.backend, scans)
	s.scans.Add(scans)
	s.scanBytes.Add(nbytes)
	s.matches.Add(matches)
	total := time.Since(start)
	rs.lat.Observe(total.Nanoseconds())
	rs.waitNS.Add(wait.Nanoseconds())
	rs.servedNS.Add(total.Nanoseconds())
}

// admit waits for a slot of rs under a pool_wait span of sp and returns
// the wait, observed on the ruleset's wait histogram, and true; the caller
// releases the slot. Without a slot it writes the failure and returns
// false: a full queue is load shedding (503, retryable elsewhere), an
// expired request deadline is 504. Each shed is attributed to the
// ruleset's per-reason counter for /metrics.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, rs *ruleset, sp *telemetry.SpanCtx) (time.Duration, bool) {
	wsp := sp.Child("pool_wait")
	start := time.Now()
	err := rs.pool.acquire(ctx)
	wait := time.Since(start)
	wsp.End()
	switch {
	case err == nil:
		rs.wait.Observe(wait.Nanoseconds())
		return wait, true
	case errors.Is(err, ErrPoolBusy):
		rs.shedCapacity.Inc()
		s.writeShed(w, s.cfg.retryAfterCapacity(), "engine pool saturated, retry later")
	case errors.Is(err, context.DeadlineExceeded):
		rs.shedDeadline.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "timed out waiting for an engine")
	default:
		rs.shedCapacity.Inc()
		s.writeShed(w, s.cfg.retryAfterCapacity(), err.Error())
	}
	return wait, false
}

// bodyErrStatus distinguishes an oversized body (413) from a malformed one
// (400).
func (s *Server) bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
