package sunder

import (
	"fmt"

	"sunder/internal/meta"
)

// resolveBackend validates Options.Backend and fixes the artifact's scan
// substrate: "nfa" (or "") the machine, "dfa" the lazy DFA, and "auto" what
// the selector picks from the shape statistics. It is the last step of
// compile. Every call on the artifact runs this substrate, on the whole
// input, on ScanParallel's shares of it or on a prefilter's candidate
// windows.
func (a *compiledArtifact) resolveBackend() error {
	if !meta.Known(a.opts.Backend) {
		return fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\" or \"dfa\")", a.opts.Backend)
	}
	a.backendNote = meta.BackendNFA
	switch a.opts.Backend {
	case meta.BackendDFA:
		if a.dfaPlan == nil {
			return fmt.Errorf("sunder: Backend %q unsupported for this configuration: %s", meta.BackendDFA, a.metaIn.DFAReason)
		}
		a.onDFA, a.backendNote = true, meta.BackendDFA
	case meta.BackendAuto:
		c := meta.Select(a.metaIn)
		a.onDFA, a.backendNote = c.Backend == meta.BackendDFA, c.String()
	}
	return nil
}

// DFAStats reports the lazy-DFA backend's cache behaviour in this engine's
// runs, on every entry point: each runner adds what its call changed when
// the call hands it back (a Stream's at Close). Clones and compile-cache
// hits count their own. It is safe to call concurrently with scans.
type DFAStats struct {
	// Supported reports whether the compiled geometry admits the lazy DFA
	// (Reason says why not).
	Supported bool
	Reason    string
	// States is the number of DFA states constructed; Hits/Misses count
	// cached-transition lookups; Evictions counts the states dropped when
	// the full cache was cleared; Fallbacks counts runs that abandoned
	// caching for direct NFA stepping after the cache thrashed. Hits are
	// added each time the hit loop stops (on a report, a miss or the end
	// of a chunk), not per cycle; the counts are exact once a call
	// returns.
	States    int64
	Hits      int64
	Misses    int64
	Evictions int64
	Fallbacks int64
}

// DFAStats returns the engine's lazy-DFA cache counters.
func (e *Engine) DFAStats() DFAStats {
	c := &e.dfaRuns
	return DFAStats{Supported: e.dfaPlan != nil, Reason: e.metaIn.DFAReason,
		States: c.states.Load(), Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Fallbacks: c.fallbacks.Load()}
}

// Backend returns the engine's resolved scan backend ("nfa" or "dfa"),
// annotated with the auto-selection reason when Options.Backend was
// "auto".
func (e *Engine) Backend() string { return e.backendNote }
