package sunder

import (
	"fmt"

	"sunder/internal/dfa"
)

// resolveBackend validates Options.Backend and fixes the artifact's scan
// substrate: "nfa" (or "") the machine, "dfa" the lazy DFA, and "auto" the
// lazy DFA wherever the geometry supports it, the machine elsewhere. A DFA
// whose cache thrashes on some input falls back to NFA stepping at run time
// (dfa.Runner's give-up rule), so no compile-time size estimate is needed.
// It is the last step of compile. Every call on the artifact runs this
// substrate, on the whole input, on ScanParallel's shares of it or on a
// prefilter's candidate windows.
func (a *compiledArtifact) resolveBackend() error {
	switch a.opts.Backend {
	case "", "nfa":
	case "dfa":
		if a.dfaPlan == nil {
			_, reason := dfa.Supported(a.nibble)
			return fmt.Errorf("sunder: Backend \"dfa\" unsupported for this configuration: %s", reason)
		}
		a.onDFA = true
	case "auto":
		a.onDFA = a.dfaPlan != nil
	default:
		return fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\" or \"dfa\")", a.opts.Backend)
	}
	return nil
}

// DFAStats reports the lazy-DFA backend's cache behaviour in this engine's
// runs, on every entry point: each runner adds what its call changed when
// the call hands it back (a Stream's at Close). Clones and compile-cache
// hits count their own. It is safe to call concurrently with scans.
type DFAStats struct {
	// Supported reports whether the compiled geometry admits the lazy DFA
	// (Reason says why not; it is also why "auto" resolved to "nfa").
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
	// Skipped is the part of Hits that the hit loop consumed without a
	// lookup: cycles an accelerated state spent looping on itself, skipped
	// in one scan for the next byte that can move it.
	Skipped int64
}

// DFAStats returns the engine's lazy-DFA cache counters.
func (e *Engine) DFAStats() DFAStats {
	c := &e.dfaRuns
	_, reason := dfa.Supported(e.nibble)
	return DFAStats{Supported: e.dfaPlan != nil, Reason: reason,
		States: c.states.Load(), Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Fallbacks: c.fallbacks.Load(), Skipped: c.skipped.Load()}
}
