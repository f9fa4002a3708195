package sunder

import (
	"fmt"

	"sunder/internal/meta"
)

// resolveBackend validates Options.Backend and resolves the artifact's
// scan backend from its shape statistics. It is the last step of compile.
// Whether a call runs this backend on the whole input or on a prefilter's
// candidate windows is Engine.resolve's decision.
func (a *compiledArtifact) resolveBackend() error {
	a.autoChoice = meta.Select(a.metaIn)
	// Options.Backend resolves like an override of the default, "nfa".
	a.backend = meta.BackendNFA
	backend, err := a.effectiveBackend(a.opts.Backend)
	if err != nil {
		return err
	}
	a.backend, a.backendNote = backend, backend
	if a.opts.Backend == meta.BackendAuto {
		a.backendNote = a.autoChoice.String()
	}
	return nil
}

// effectiveBackend validates a backend name and resolves it against the
// compiled choice ("" keeps it, "auto" is what the selector picked for this
// shape) — the per-call ScanOptions.Backend override, and at compile time
// Options.Backend itself.
func (e *compiledArtifact) effectiveBackend(override string) (string, error) {
	if override == "" {
		return e.backend, nil
	}
	if !meta.Known(override) {
		return "", fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\" or \"dfa\")", override)
	}
	if override == meta.BackendAuto {
		return e.autoChoice.Backend, nil
	}
	if override == meta.BackendDFA && e.dfaPlan == nil {
		return "", fmt.Errorf("sunder: Backend %q unsupported for this configuration: %s", meta.BackendDFA, e.metaIn.DFAReason)
	}
	return override, nil
}

// DFAStats reports the lazy-DFA backend's cache behaviour on this engine's
// sequential runner, the one Scan and NewStream use (zero until the first
// DFA scan), and on that runner only: the pooled runners of ScanBatch and
// ScanParallel belong to no engine and are not counted. Like Scan, it reads
// sequential-path state and must not race a concurrent sequential scan.
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
	out := DFAStats{Supported: e.dfaPlan != nil, Reason: e.metaIn.DFAReason}
	if e.dfaRun != nil {
		s := e.dfaRun.r.Stats()
		out.States, out.Hits, out.Misses = s.States, s.Hits, s.Misses
		out.Evictions, out.Fallbacks = s.Evictions, s.Fallbacks
	}
	return out
}

// Backend returns the engine's resolved scan backend ("nfa" or "dfa"),
// annotated with the auto-selection reason when Options.Backend was
// "auto".
func (e *Engine) Backend() string { return e.backendNote }
