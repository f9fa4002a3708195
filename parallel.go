package sunder

import (
	"runtime"

	"sunder/internal/sched"
)

// ScanOptions configures the parallel scan paths (ScanParallel and
// ScanBatch). The zero value uses GOMAXPROCS workers. The workers run on
// the engine's compiled substrate (Options.Backend), one runner per worker
// from the artifact's free list: a clone of its machine, or a lazy DFA.
type ScanOptions struct {
	// Workers caps the number of worker goroutines; <= 0 uses GOMAXPROCS.
	Workers int
}

func (o ScanOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ScanParallel is Scan over worker goroutines: the input's cycles are cut
// into up to Workers contiguous shares of at least
// sched.DefaultMinShardCycles cycles, each run on a pooled runner of the
// compiled backend — a clone of the compiled machine, or a lazy
// DFA — after a silent warm-up replay of the automaton's dependence
// window, and the shares merge in input order. The result is Scan's: the
// same matches in the same order, and the same KernelCycles, Reports and
// ReportCycles. On the machine the shares' report cycles merge in cycle
// order into one report model, so StallCycles, Flushes and PerPU equal
// Scan's too. Automata whose dependence window is unbounded (`.*`-style
// self-loops) and inputs too small to cut run as one share.
//
// Under an engaged prefilter the workers split the candidate windows
// instead: each runs a contiguous share of them, and the shares merge in
// input order (a window two shares straddle counts once for each in
// PrefilterWindows).
func (e *Engine) ScanParallel(input []byte, opts ScanOptions) (*ScanResult, error) {
	rs := make([]*runner, opts.workers())
	defer e.release(rs)
	return e.scanOn(rs, input)
}

// ScanBatch scans many independent inputs concurrently on a bounded worker
// pool: opts.Workers runners serve the queue, and submission blocks once
// twice that many scans wait in flight. results[i] corresponds to
// inputs[i] and is identical to what Scan(inputs[i]) would return; under an
// engaged prefilter a worker runs its input's candidate windows on its
// runner. The workers' runners come from a free list shared by the engine,
// its clones and compile-cache hits, and go back to it, a lazy DFA's with
// the states it determinized: the runners and caches outlive the call, and
// an idle rule set's are the garbage collector's to reclaim.
func (e *Engine) ScanBatch(inputs [][]byte, opts ScanOptions) ([]*ScanResult, error) {
	results := make([]*ScanResult, len(inputs))
	workers := max(min(opts.workers(), len(inputs)), 1)
	// Each worker owns a runner, acquired by its first input: inputs are
	// independent, so runners reset per input but keep their scratch warm
	// across the batch (and the DFA its cache across calls). errs holds
	// each worker's first error.
	runners := make([]*runner, workers)
	errs := make([]error, workers)
	// Two queued inputs per worker keep every worker fed while submission
	// waits on the queue instead of buffering the whole batch.
	pool := sched.NewPool(workers, 2*workers)
	for i, in := range inputs {
		pool.Submit(func(worker int) {
			if errs[worker] != nil {
				return
			}
			results[i], errs[worker] = e.scanOn(runners[worker:worker+1], in)
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

// Clone returns an engine over this engine's compiled artifact with
// telemetry and DFAStats of its own: Telemetry attachments do not carry
// over (attach them per clone as needed), and its DFA counters start at
// zero. It costs one allocation; an engine needs no clone to serve
// concurrent calls.
func (e *Engine) Clone() *Engine { return newEngine(e.compiledArtifact) }
