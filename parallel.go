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
	// runners, one per ScanBatch worker; ScanParallel takes one and ignores
	// Workers (a DFA state cache is inherently serial) — output stays
	// byte-identical.
	// The override sits where Options.Backend does in the one precedence
	// (armed fault policy > engaged prefilter > backend) and is validated
	// before it: an unknown name or an unsupported "dfa" is an error even
	// when the guard or the prefilter ends up owning the scan.
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
// StallCycles and Flushes are summed across the worker clones; each clone's
// report region fills on its shard's local history, so these two fields
// (and PerPU) describe the parallel execution itself and are not
// cycle-comparable to a sequential scan. Automata whose dependence window
// is unbounded (`.*`-style self-loops) and inputs too small to shard fall
// back to a sequential run internally — same results, one worker.
//
// ScanParallel never touches the engine's shared machine, so concurrent
// calls on one engine are safe. Under an armed fault policy it runs the
// guarded sequential scan Scan does, on the shared machine: the recovery
// protocol is strictly sequential (see SetFaultPolicy).
func (e *Engine) ScanParallel(input []byte, opts ScanOptions) (*ScanResult, error) {
	l, err := e.resolve(opts.Backend, shardAlways)
	if err != nil {
		return nil, err
	}
	rn := e.runner(l, true)
	defer e.release(rn)
	return e.scanOn(l, rn, input, opts.workers())
}

// scanSharded is the sharded parallel run ScanParallel (and Scan on the
// "parallel" backend) execute: worker clones with dependence-window warm-up
// replay, merged back into sequential order.
func (e *Engine) scanSharded(input []byte, workers int) *ScanResult {
	rr := sched.ParallelRun(e.proto, e.nibble, funcsim.BytesToUnits(input, 4), sched.RunConfig{
		Workers:      workers,
		RecordEvents: true,
		Collector:    e.telemetryCollector(),
	})
	return e.schedResult(rr, input, 0, 0)
}

// ScanBatch scans many independent inputs concurrently on a bounded worker
// pool: opts.Workers machine clones serve the queue, and at most
// opts.BatchSize scans wait in flight. results[i] corresponds to inputs[i]
// and is identical to what Scan(inputs[i]) on a fresh engine would return.
// On the lazy-DFA backend the workers' runners come from a pool shared by
// the engine, its clones and compile-cache hits, and go back to it with the
// states they determinized: the cache outlives the call, and an idle rule
// set's runners are the garbage collector's to reclaim.
//
// Like ScanParallel it leaves the engine's shared machine alone and is
// safe to call concurrently. Under an armed fault policy the batch runs
// its inputs one after another under the guard on the shared machine, and
// stops at the first error.
func (e *Engine) ScanBatch(inputs [][]byte, opts ScanOptions) ([]*ScanResult, error) {
	l, err := e.resolve(opts.Backend, shardNever)
	if err != nil {
		return nil, err
	}
	results := make([]*ScanResult, len(inputs))
	workers := max(min(opts.workers(), len(inputs)), 1)
	if l == legGuard {
		// The recovery protocol owns the shared machine: one worker.
		workers = 1
	}
	queue := opts.BatchSize
	if queue <= 0 {
		queue = 2 * workers
	}
	// Each worker owns a private runner: inputs are independent, so runners
	// reset per input but keep their scratch warm across the batch (and the
	// DFA its cache across calls). errs holds each worker's first error.
	runners := make([]runner, workers)
	for i := range runners {
		runners[i] = e.runner(l, true)
	}
	errs := make([]error, workers)
	pool := sched.NewPool(workers, queue)
	for i, in := range inputs {
		pool.Submit(func(worker int) {
			if errs[worker] != nil {
				return
			}
			results[i], errs[worker] = e.scanOn(l, runners[worker], in, 1)
		})
	}
	pool.Wait()
	for _, rn := range runners {
		e.release(rn)
	}
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
// concurrently. Fault policies and telemetry attachments do not carry
// over — arm them per clone as needed.
func (e *Engine) Clone() *Engine { return newEngine(e.compiledArtifact) }
