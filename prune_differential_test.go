package sunder

import (
	"sort"
	"testing"

	"sunder/internal/workload"
)

// sortedMatches returns a position-then-code sorted copy, the order a
// ScanResult's matches come in, for results built outside the façade.
func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Position != out[j].Position {
			return out[i].Position < out[j].Position
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPruneDifferential is the acceptance criterion for compile-time
// pruning, which runs as Options.Minimize's prune rounds: for every
// benchmark, Info() must account for every device state the minimized
// engine lost as pruned or merged, and the sequential and parallel scans
// must produce the same matches, Reports, ReportCycles and KernelCycles as
// the unminimized engine.
func TestPruneDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full 19-benchmark differential in long mode only")
	}
	const inputLen = 6000
	for _, name := range workload.Names() {
		w, err := workload.Get(name, workload.DefaultScale, inputLen)
		if err != nil {
			t.Fatal(err)
		}
		base, err := CompileAutomaton(w.Automaton, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := DefaultOptions()
		opts.Minimize = true
		min, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatalf("%s (minimized): %v", name, err)
		}
		info := min.Info()
		if got, want := info.PrunedStates+info.MergedStates, base.Info().DeviceStates-info.DeviceStates; got != want {
			t.Errorf("%s: Info() pruned+merged = %d, state delta %d", name, got, want)
		}

		bseq, err := base.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		mseq, err := min.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		compareMinimized(t, name+"/seq", bseq, mseq)

		bpar, err := base.ScanParallel(w.Input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		mpar, err := min.ScanParallel(w.Input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		compareMinimized(t, name+"/par", bpar, mpar)
	}
}

// TestPruneOptionShrinksLevenshtein pins that Minimize's prune rounds
// actually remove states where dead states exist (the Levenshtein widgets
// carry subsumed insertion variants at rate 4).
func TestPruneOptionShrinksLevenshtein(t *testing.T) {
	w, err := workload.Get("Levenshtein", workload.DefaultScale, 2000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Minimize = true
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Info().PrunedStates == 0 {
		t.Fatal("expected pruned states on Levenshtein at rate 4, got 0")
	}
}
