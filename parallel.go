package sunder

import (
	"runtime"

	"sunder/internal/funcsim"
	"sunder/internal/sched"
)

// ScanOptions configures the parallel scan paths (ScanParallel and
// ScanBatch). The zero value picks sensible defaults everywhere.
type ScanOptions struct {
	// Workers caps the number of worker goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// BatchSize bounds ScanBatch's in-flight queue: submission blocks once
	// that many scans are queued ahead of the workers (backpressure
	// instead of unbounded buffering). <= 0 selects 2× workers.
	BatchSize int
	// Backend overrides the engine's compiled backend for this call; ""
	// keeps the compiled choice and "auto" resolves as Options.Backend
	// "auto" would have. A "dfa" override runs the lazy DFA on pooled
	// runners, one per ScanBatch worker; unfiltered, ScanParallel takes one
	// and ignores Workers (a DFA state cache is inherently serial) — output
	// stays byte-identical. Under an engaged prefilter the override picks
	// the substrate of the candidate windows: the lazy DFA for "dfa", the
	// machine otherwise. An unknown name or an unsupported "dfa" is an
	// error on every route.
	Backend string
}

func (o ScanOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ScanParallel is Scan over worker goroutines: one large input is sharded
// across workers, each driving its own clone of the compiled machine, with
// per-shard warm-up replay sized to the automaton's dependence window so
// the merged output is byte-identical to sequential Scan — same matches in
// the same order, and the same KernelCycles, Reports and ReportCycles.
//
// The shards' report cycles merge in cycle order into one report model, so
// StallCycles, Flushes and PerPU equal sequential Scan's too. Automata
// whose dependence window is unbounded (`.*`-style self-loops) and inputs
// too small to shard fall back to a sequential run internally — same
// results, one worker.
//
// Under an engaged prefilter the workers split the candidate windows
// instead: each runs a contiguous share of the input's cycles on a private
// runner of the resolved backend, and the shares merge in input order (a
// window two shares straddle counts once for each in PrefilterWindows).
//
// ScanParallel never touches the engine's shared machine, so concurrent
// calls on one engine are safe.
func (e *Engine) ScanParallel(input []byte, opts ScanOptions) (*ScanResult, error) {
	rt, err := e.resolve(opts.Backend, shardAlways)
	if err != nil {
		return nil, err
	}
	workers := opts.workers()
	rs := make([]windowRunner, workers)
	defer e.release(rs)
	return e.scanOn(rt, rs, true, input, workers)
}

// scanSharded is the sharded parallel run ScanParallel (and Scan on the
// "parallel" backend) execute: worker clones with dependence-window warm-up
// replay, merged back into sequential order. Its merged events go through
// the same reduction tail (phantom filter, Match construction) as a
// runner's report cycles, and its merged report-state stream feeds one
// report model.
func (e *Engine) scanSharded(input []byte, workers int) *ScanResult {
	model := e.newModel()
	rr := sched.ParallelRun(e.proto, e.nibble, funcsim.BytesToUnits(input, 4), sched.RunConfig{
		Workers:       workers,
		RecordEvents:  true,
		Collector:     e.telemetryCollector(),
		OnReportCycle: model.OnReportCycle,
	})
	red := newReduction(e.proto.Reports(), e.nibble, nil)
	red.fed = int64(len(input))
	if len(rr.Events) > 0 {
		red.matches = make([]Match, 0, len(rr.Events))
	}
	for _, ev := range rr.Events {
		red.deliver(ev.Unit, ev.Code)
	}
	out := runOutput{
		stats: Stats{
			KernelCycles: rr.KernelCycles,
			Reports:      rr.Reports,
			ReportCycles: rr.ReportCycles,
		},
		matches: red.matches,
	}
	out.reportOn(model, rr.KernelCycles)
	return e.result(out)
}

// ScanBatch scans many independent inputs concurrently on a bounded worker
// pool: opts.Workers private runners serve the queue, and at most
// opts.BatchSize scans wait in flight. results[i] corresponds to inputs[i]
// and is identical to what Scan(inputs[i]) on a fresh engine would return;
// under an engaged prefilter a worker runs its input's candidate windows on
// its runner. On the lazy-DFA backend the workers' runners come from a free
// list shared by the engine, its clones and compile-cache hits, and go back
// to it with the states they determinized: the cache outlives the call, and
// an idle rule set's runners are the garbage collector's to reclaim.
//
// Like ScanParallel it leaves the engine's shared machine alone and is
// safe to call concurrently.
func (e *Engine) ScanBatch(inputs [][]byte, opts ScanOptions) ([]*ScanResult, error) {
	rt, err := e.resolve(opts.Backend, shardNever)
	if err != nil {
		return nil, err
	}
	results := make([]*ScanResult, len(inputs))
	workers := max(min(opts.workers(), len(inputs)), 1)
	queue := opts.BatchSize
	if queue <= 0 {
		queue = 2 * workers
	}
	// Each worker owns a private runner, acquired by its first input that
	// needs one: inputs are independent, so runners reset per input but keep
	// their scratch warm across the batch (and the DFA its cache across
	// calls). errs holds each worker's first error.
	runners := make([]windowRunner, workers)
	errs := make([]error, workers)
	pool := sched.NewPool(workers, queue)
	for i, in := range inputs {
		pool.Submit(func(worker int) {
			if errs[worker] != nil {
				return
			}
			results[i], errs[worker] = e.scanOn(rt, runners[worker:worker+1], true, in, 1)
		})
	}
	pool.Wait()
	e.release(runners)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Clone returns an independent engine sharing this engine's immutable
// compile artifacts (automata, placement) but owning its own pristine
// machine. Sequential scans and streams on different clones may run fully
// concurrently. Telemetry attachments do not carry over — attach them per
// clone as needed.
func (e *Engine) Clone() *Engine { return newEngine(e.compiledArtifact) }
