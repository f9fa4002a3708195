// Package meta is the analysis-driven backend selector: given the shape
// statistics the static analyzer and compiler already produce for a
// ruleset, it picks the execution substrate a `Backend: "auto"` engine will
// scan on.
//
// The heuristic encodes the measured dispatch table in DESIGN.md §4.16,
// which follows the DFA-vs-NFA crossover study (Siddique et al. 2022):
// which substrate wins is a function of automaton shape, not input.
//
//   - The lazy DFA steps one cached transition per cycle regardless of
//     active-set width, so it wins wherever determinization is supported
//     and the subset space fits its cache — in practice everything up to
//     a few thousand device states.
//   - Everything else (rate-1 engines, automata too large to determinize
//     profitably) stays on the bitvec NFA core.
//
// Neither an engaged literal prefilter nor parallelism is an input: the
// prefilter decides which windows of an input run and the entry point
// (ScanParallel) how many workers share them; the substrate chosen here
// runs them.
//
// The package is deliberately pure: Select is a function of its inputs,
// takes no clocks and no randomness, and returns the same choice for the
// same compiled shape every time (it is in sunder-vet's DeterministicPkgs).
package meta

import "fmt"

// Backend names. These are the resolved values Select returns and the
// façade accepts in Options.Backend (plus "auto" and "", which resolve
// through Select and to BackendNFA respectively).
const (
	// BackendNFA is the bitvec NFA core (the architectural simulator) —
	// the reference backend the lazy DFA must match.
	BackendNFA = "nfa"
	// BackendDFA is the lazy-DFA software backend (internal/dfa).
	BackendDFA = "dfa"
	// BackendAuto asks Select to resolve the backend from the compiled
	// shape at compile time.
	BackendAuto = "auto"
)

// Known reports whether name is an accepted Options.Backend value ("" is
// the legacy default and means BackendNFA).
func Known(name string) bool {
	switch name {
	case "", BackendAuto, BackendNFA, BackendDFA:
		return true
	}
	return false
}

// Inputs is the compiled shape Select consumes. Everything here is already
// computed by compilation or the static analyzer; Select adds no passes.
type Inputs struct {
	// ByteStates and DeviceStates are the state counts before and after
	// nibble transformation and striding.
	ByteStates   int
	DeviceStates int
	// ReportStates is the number of reporting device states; with
	// DeviceStates it gives the report density.
	ReportStates int
	// Rate and SymbolUnits describe the cycle geometry (units per cycle,
	// units per input byte).
	Rate        int
	SymbolUnits int
	// SymbolClasses is the certified effective alphabet size of the byte
	// automaton (compresses DFA transition rows).
	SymbolClasses int
	// DFASupported/DFAReason is the lazy-DFA support verdict
	// (dfa.Supported): determinization needs whole-byte cycles.
	DFASupported bool
	DFAReason    string
}

// Threshold of the dispatch heuristic, exported so the docs, the bench
// study and the tests can reference the exact boundary.
const (
	// MaxDFADeviceStates bounds the automata handed to the lazy DFA: past
	// it, per-state transition rows and subset churn outweigh the cached
	// stepping win.
	MaxDFADeviceStates = 4096
)

// Choice is Select's resolved backend plus the reason, recorded in
// Info().Backend so the dispatch is auditable.
type Choice struct {
	// Backend is BackendNFA or BackendDFA.
	Backend string
	// Reason is a short human-readable justification.
	Reason string
}

// String renders the choice as Info().Backend shows it.
func (c Choice) String() string {
	if c.Reason == "" {
		return c.Backend
	}
	return fmt.Sprintf("%s (auto: %s)", c.Backend, c.Reason)
}

// Select resolves "auto" for a compiled shape. It never returns an invalid
// choice: the fallback is always the sequential NFA core.
func Select(in Inputs) Choice {
	if !in.DFASupported {
		reason := in.DFAReason
		if reason == "" {
			reason = "dfa unsupported"
		}
		return Choice{Backend: BackendNFA, Reason: reason}
	}
	if in.DeviceStates <= MaxDFADeviceStates {
		return Choice{Backend: BackendDFA, Reason: fmt.Sprintf(
			"%d device states, %d symbol classes: cached transitions beat bitvec stepping",
			in.DeviceStates, in.SymbolClasses)}
	}
	return Choice{Backend: BackendNFA, Reason: fmt.Sprintf(
		"%d device states too large to determinize profitably", in.DeviceStates)}
}
