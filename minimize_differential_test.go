package sunder

import (
	"testing"

	"sunder/internal/workload"
)

// compareMinimized asserts the minimized result is observably identical to
// the baseline: same matches and the same report statistics. Unlike the
// prefilter, minimization must not change the cycle structure at all — the
// machine is smaller, not faster per cycle — so KernelCycles must agree
// exactly as well.
func compareMinimized(t *testing.T, label string, base, min *ScanResult) {
	t.Helper()
	if !matchesEqual(sortedMatches(base.Matches), sortedMatches(min.Matches)) {
		t.Errorf("%s: matches diverged (%d baseline vs %d minimized)",
			label, len(base.Matches), len(min.Matches))
	}
	if base.Stats.Reports != min.Stats.Reports || base.Stats.ReportCycles != min.Stats.ReportCycles {
		t.Errorf("%s: reports %d/%d minimized vs %d/%d baseline",
			label, min.Stats.Reports, min.Stats.ReportCycles,
			base.Stats.Reports, base.Stats.ReportCycles)
	}
	if base.Stats.KernelCycles != min.Stats.KernelCycles {
		t.Errorf("%s: kernel cycles %d minimized vs %d baseline",
			label, min.Stats.KernelCycles, base.Stats.KernelCycles)
	}
}

// TestMinimizeDifferential is the acceptance battery for certified
// minimization: for every benchmark workload, an engine compiled with
// Options.Minimize must be observably invisible on the sequential,
// parallel and streaming scan paths. Compilation itself re-verifies the
// equivalence certificate, so reaching the scan at all means the merge
// proof checked out; this test adds the end-to-end behavioural evidence.
func TestMinimizeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full 19-benchmark differential in long mode only")
	}
	const inputLen = 6000
	workers := []int{1, 2, 4, 8}
	chunks := []int{1, 13, 97}
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
		if info.SymbolClasses == 0 {
			t.Errorf("%s: minimized engine must report a symbol-class count", name)
		}
		t.Logf("%s: %d pruned, %d merged, %d symbol classes",
			name, info.PrunedStates, info.MergedStates, info.SymbolClasses)

		bseq, err := base.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		mseq, err := min.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		compareMinimized(t, name+"/seq", bseq, mseq)

		for _, nw := range workers {
			mpar, err := min.ScanParallel(w.Input, ScanOptions{Workers: nw})
			if err != nil {
				t.Fatal(err)
			}
			compareMinimized(t, name+"/par", bseq, mpar)
		}

		for _, chunk := range chunks {
			var got []Match
			st, err := min.Clone().NewStream(func(m Match) { got = append(got, m) })
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(w.Input); off += chunk {
				end := off + chunk
				if end > len(w.Input) {
					end = len(w.Input)
				}
				if _, err := st.Write(w.Input[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			stats := st.Close()
			label := name + "/stream"
			if !matchesEqual(sortedMatches(bseq.Matches), sortedMatches(got)) {
				t.Errorf("%s chunk=%d: matches diverged (%d vs %d)",
					label, chunk, len(bseq.Matches), len(got))
			}
			if stats.Reports != bseq.Stats.Reports || stats.ReportCycles != bseq.Stats.ReportCycles {
				t.Errorf("%s chunk=%d: reports %d/%d, want %d/%d",
					label, chunk, stats.Reports, stats.ReportCycles,
					bseq.Stats.Reports, bseq.Stats.ReportCycles)
			}
		}
	}
}
