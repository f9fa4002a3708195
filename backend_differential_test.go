package sunder

import (
	"strings"
	"testing"

	"sunder/internal/workload"
)

// compareBackend asserts a backend result is observably identical to the
// NFA core's: the same matches in the same order, Reports and
// ReportCycles. Stall/flush counters are backend implementation detail and
// excluded.
func compareBackend(t *testing.T, label string, base, got *ScanResult) {
	t.Helper()
	if !matchesEqual(base.Matches, got.Matches) {
		t.Errorf("%s: matches diverged (%d base vs %d backend)",
			label, len(base.Matches), len(got.Matches))
	}
	if base.Stats.Reports != got.Stats.Reports || base.Stats.ReportCycles != got.Stats.ReportCycles {
		t.Errorf("%s: reports %d/%d, want %d/%d",
			label, got.Stats.Reports, got.Stats.ReportCycles,
			base.Stats.Reports, base.Stats.ReportCycles)
	}
}

// TestBackendDifferential is the meta-engine acceptance battery: every
// benchmark workload compiled under Backend "auto" and forced "dfa" must be
// byte-identical to the sequential NFA core on Scan, ScanParallel (1–8
// workers) and Stream (chunks 1/13/97). Workloads whose configuration the
// lazy DFA does not support (DFAStats().Supported) skip the forced leg;
// auto never fails.
func TestBackendDifferential(t *testing.T) {
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
		bseq, err := base.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}

		for _, backend := range []string{"auto", "dfa"} {
			if backend == "dfa" && !base.DFAStats().Supported {
				t.Logf("%s: forced dfa unsupported: %s", name, base.DFAStats().Reason)
				continue
			}
			opts := DefaultOptions()
			opts.Backend = backend
			eng, err := CompileAutomaton(w.Automaton, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, backend, err)
			}
			label := name + "/" + backend
			t.Logf("%s: resolved backend %s", label, eng.Info().Backend)

			seq, err := eng.Scan(w.Input)
			if err != nil {
				t.Fatal(err)
			}
			compareBackend(t, label+"/seq", bseq, seq)

			for _, nw := range workers {
				par, err := eng.ScanParallel(w.Input, ScanOptions{Workers: nw})
				if err != nil {
					t.Fatal(err)
				}
				compareBackend(t, label+"/par", bseq, par)
			}

			for _, chunk := range chunks {
				var got []Match
				st, err := eng.Clone().NewStream(func(m Match) { got = append(got, m) })
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
				if !matchesEqual(bseq.Matches, got) {
					t.Errorf("%s/stream chunk=%d: matches diverged (%d vs %d)",
						label, chunk, len(bseq.Matches), len(got))
				}
				if stats.Reports != bseq.Stats.Reports || stats.ReportCycles != bseq.Stats.ReportCycles {
					t.Errorf("%s/stream chunk=%d: reports %d/%d, want %d/%d",
						label, chunk, stats.Reports, stats.ReportCycles,
						bseq.Stats.Reports, bseq.Stats.ReportCycles)
				}
			}
		}
	}
}

// FuzzDFA cross-checks the lazy-DFA backend against the NFA core on
// fuzz-chosen inputs over a panel of rule sets, through a forced "dfa"
// engine's slot runner and its pooled parallel ones.
func FuzzDFA(f *testing.F) {
	sets := [][]Pattern{
		{{Expr: `ab+c`, Code: 1}, {Expr: `zz`, Code: 2}},
		{{Expr: `GET /[a-z]+`, Code: 3}, {Expr: `needle`, Code: 4}},
		{{Expr: `(ab|a.)c`, Code: 5}},
		{{Expr: `a.*b`, Code: 6}, {Expr: `[0-9]{3}`, Code: 7}},
	}
	type pair struct{ base, dfa *Engine }
	pairs := make([]pair, 0, len(sets))
	for _, ps := range sets {
		base, err := Compile(ps, DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Backend = "dfa"
		forced, err := Compile(ps, opts)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{base, forced})
	}
	f.Add(uint8(0), []byte("xabbczzx"))
	f.Add(uint8(1), []byte("GET /admin needle"))
	f.Add(uint8(2), []byte("axc abc"))
	f.Add(uint8(3), []byte("a123b"))
	f.Fuzz(func(t *testing.T, sel uint8, input []byte) {
		if len(input) > 1024 {
			t.Skip("cap work per case")
		}
		p := pairs[int(sel)%len(pairs)]
		want, err := p.base.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.dfa.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		compareBackend(t, "fuzz/dfa", want, got)
		par, err := p.dfa.ScanParallel(input, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareBackend(t, "fuzz/dfa-parallel", want, par)
	})
}

// TestCompileRefusesUnknownBackend: Options.Backend accepts "auto", "nfa"
// and "dfa" only — "parallel" among the refused names: ScanParallel, not a
// backend, shards — and a forced "dfa" the configuration cannot determinize
// (Rate 1) fails the compile too.
func TestCompileRefusesUnknownBackend(t *testing.T) {
	for _, backend := range []string{"bogus", "parallel"} {
		_, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, Options{Backend: backend})
		if err == nil || !strings.Contains(err.Error(), "unknown Backend") {
			t.Errorf("Compile with Backend %q: %v, want an unknown-backend error", backend, err)
		}
	}
	_, err := Compile([]Pattern{{Expr: `ab+c`, Code: 1}}, Options{Rate: 1, Backend: "dfa"})
	if err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("Compile with Rate 1 and Backend \"dfa\": %v, want an unsupported-backend error", err)
	}
}
