// sunder-serve runs the network scan service: the Sunder engine behind a
// stdlib net/http API, serving compiled rule sets for batched and
// streaming pattern matching on one node (see internal/server and
// DESIGN.md §4.11).
//
// Usage:
//
//	sunder-serve                          # serve on 127.0.0.1:8080
//	sunder-serve -addr :9090 -pool 8      # more requests per ruleset at once
//
// Serving endpoints:
//
//	PUT    /rulesets/{id}        upload + compile a rule set (JSON: patterns, options)
//	GET    /rulesets/{id}        compiled info + serving stats
//	DELETE /rulesets/{id}        remove a rule set
//	POST   /rulesets/{id}/scan   scan a raw body, or a JSON batch of inputs
//	POST   /rulesets/{id}/stream chunked body in, NDJSON matches out
//	GET    /metrics              service + compile-cache + device counters,
//	                             per-ruleset latency quantiles and shed
//	                             counters (?format=json for the structured view)
//	GET    /trace                merged Chrome trace of device cycle events and
//	                             request spans (?format=spans for raw JSONL;
//	                             requires -trace-sample > 0)
//	GET    /debug/pprof/         runtime profiles
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"sunder/internal/cliutil"
	"sunder/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sunder-serve: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		pool     = flag.Int("pool", 0, "requests per ruleset that run at once (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "waiters allowed beyond -pool before shedding 503 (0 = 4x pool, negative = none)")
		workers  = flag.Int("scanworkers", 0, "worker goroutines per batched/parallel scan (0 = GOMAXPROCS)")
		maxBody  = flag.Int64("maxbody", 0, "request body cap in bytes (0 = 16MiB)")
		timeout  = flag.Duration("timeout", 0, "per-scan-request timeout (0 = 30s)")
		drain    = flag.Duration("drain", 0, "graceful shutdown budget (0 = 10s)")
		traceN   = flag.Int("trace-sample", 0, "record a span tree for every Nth request and arm the device tracer for GET /trace (0 = tracing off)")
		traceCap = flag.Int("trace-cap", 0, "max buffered spans (0 = 64k)")
		profiles = cliutil.ProfileFlags()
	)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New(server.Config{
		PoolSize:         *pool,
		QueueDepth:       *queue,
		ScanWorkers:      *workers,
		MaxBodyBytes:     *maxBody,
		ScanTimeout:      *timeout,
		DrainTimeout:     *drain,
		TraceSampleEvery: *traceN,
		TraceCapacity:    *traceCap,
		Logger:           slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}
