package sunder

import (
	"fmt"
	"strings"
	"testing"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/regex"
	"sunder/internal/transform"
)

// FuzzCompile fuzzes the full front end: the regex parser must reject or
// accept any expression without panicking, and when a pattern compiles and
// maps onto the device, the engine must agree with its own reference check
// (functional simulator vs byte automaton vs machine) on arbitrary input.
func FuzzCompile(f *testing.F) {
	f.Add(`ab+c`, "xabbcx")
	f.Add(`a(b|c)*d`, "abcbcd")
	f.Add(`[0-9a-f]{2,4}`, "deadbeef")
	f.Add(`\x00\xff`, "\x00\xff")
	f.Add(`(`, "unbalanced")
	f.Add(`a{1000000}`, "aaaa")
	f.Add(`.`, "\x00")
	f.Fuzz(func(t *testing.T, expr string, input string) {
		if len(expr) > 64 || len(input) > 256 {
			t.Skip("cap work per case")
		}
		eng, err := Compile([]Pattern{{Expr: expr, Code: 1}}, DefaultOptions())
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := eng.Verify([]byte(input)); err != nil {
			t.Fatalf("Verify(%q) after Compile(%q): %v", input, expr, err)
		}
	})
}

// FuzzPrefilterExtract fuzzes the prefilter's soundness contract end to
// end: for any pattern that compiles with PrefilterOn and any input, the
// filtered scan must agree with an unfiltered engine exactly — and when
// the extracted literals do not occur in the input (and cannot complete in
// the pad tail), the unfiltered engine must report nothing, proving every
// extracted literal really is required. dfa draws the substrate the
// candidate windows run on.
func FuzzPrefilterExtract(f *testing.F) {
	f.Add(`needle`, "a needle in a haystack", false)
	f.Add(`foo[01]bar`, "xfoo0barx", true)
	f.Add(`ab+c`, "xabbcx", false)
	f.Add(`abc|wxyz`, "no hits here", true)
	f.Add(`a.{2}b`, "axxb", true)
	f.Add(`(up|dn)load`, "upload dnload", false)
	f.Fuzz(func(t *testing.T, expr string, input string, dfa bool) {
		if len(expr) > 48 || len(input) > 256 {
			t.Skip("cap work per case")
		}
		opts := DefaultOptions()
		opts.Prefilter = PrefilterOn
		if dfa {
			opts.Backend = "dfa"
		}
		filt, err := Compile([]Pattern{{Expr: expr, Code: 1}}, opts)
		if err != nil {
			return
		}
		base, err := Compile([]Pattern{{Expr: expr, Code: 1}}, DefaultOptions())
		if err != nil {
			t.Fatalf("unfiltered compile diverged: %v", err)
		}
		want, err := base.Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		got, err := filt.Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		agree(t, fmt.Sprintf("Compile(%q).Scan(%q) filtered", expr, input), want, got, nil)
		// The required-literal property itself: a full skip (no literal
		// occurrence, no pad-tail hazard) implies the unfiltered engine saw
		// no reports at all.
		if filt.pre.enabled() && got.Stats.KernelCycles == 0 && got.Stats.PrefilterWindows == 0 &&
			want.Stats.Reports != 0 {
			t.Fatalf("Compile(%q).Scan(%q): prefilter skipped everything but the unfiltered engine reported %d times",
				expr, input, want.Stats.Reports)
		}
	})
}

// FuzzMinimize fuzzes the certified minimizer's two contracts at once: for
// any pattern set that compiles with Options.Minimize, the minimized engine
// must scan arbitrary input exactly like an unminimized one; and the
// equivalence certificate must be fragile — a single targeted edit from the
// guaranteed-invalid mutation set (out-of-range class, phantom class,
// dropped step, flipped prune reason, self-dominating witness) must make
// CheckCertificate reject it.
func FuzzMinimize(f *testing.F) {
	f.Add(`ab+c|abd`, "xabbc abd x", uint8(0))
	f.Add(`foo[a-z]+|fox[0-9]`, "foozle fox7 foo", uint8(2))
	f.Add(`(up|dn)load`, "upload dnload upload", uint8(3))
	f.Add(`a{2,5}b`, "aaab aab aaaaab", uint8(5))
	f.Add(`x[0-9a-f]{2}y|x[0-9a-f]{4}z`, "xdeady xbeefz", uint8(6))
	f.Fuzz(func(t *testing.T, expr string, input string, mut uint8) {
		if len(expr) > 64 || len(input) > 256 {
			t.Skip("cap work per case")
		}
		patterns := []Pattern{{Expr: expr, Code: 1}}
		opts := DefaultOptions()
		opts.Minimize = true
		min, err := Compile(patterns, opts)
		if err != nil {
			// Rejecting the pattern is fine, but a certificate rejection on
			// the minimizer's own output is a real bug: the same pattern
			// must then fail the unminimized compile too.
			if strings.Contains(err.Error(), "certificate rejected") {
				t.Fatalf("Compile(%q) rejected its own certificate: %v", expr, err)
			}
			return
		}
		base, err := Compile(patterns, DefaultOptions())
		if err != nil {
			t.Fatalf("unminimized compile diverged: %v", err)
		}
		want, err := base.Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		got, err := min.Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		agree(t, fmt.Sprintf("Compile(%q).Scan(%q) minimized", expr, input), want, got, nil)

		// Certificate fragility: re-derive the certificate outside the
		// engine, apply one guaranteed-invalid edit, and demand rejection.
		nfa, err := regex.CompileSet([]regex.Pattern{{Expr: expr, Code: 1}})
		if err != nil {
			t.Fatalf("re-parse diverged: %v", err)
		}
		ua, err := transform.ToRate(nfa, opts.Rate)
		if err != nil {
			t.Fatalf("re-transform diverged: %v", err)
		}
		pre := ua.Clone()
		res := analysis.Minimize(ua)
		if err := analysis.CheckCertificate(pre, ua, res.Cert); err != nil {
			t.Fatalf("pristine certificate rejected: %v", err)
		}
		cert := res.Cert
		mergeIdx, pruneIdx := -1, -1
		for i, s := range cert.Steps {
			if s.Kind != analysis.StepPrune && mergeIdx < 0 {
				mergeIdx = i
			}
			if s.Kind == analysis.StepPrune && pruneIdx < 0 {
				pruneIdx = i
			}
		}
		name, applied := "", false
		switch mut % 6 {
		case 0:
			name = "class out of range"
			if mergeIdx >= 0 {
				s := &cert.Steps[mergeIdx]
				s.Class[0] = automata.StateID(s.NumClasses)
				applied = true
			}
		case 1:
			name = "negative class"
			if mergeIdx >= 0 {
				cert.Steps[mergeIdx].Class[0] = -1
				applied = true
			}
		case 2:
			name = "phantom empty class"
			if mergeIdx >= 0 {
				cert.Steps[mergeIdx].NumClasses++
				applied = true
			}
		case 3:
			name = "dropped final step"
			if len(cert.Steps) > 0 {
				cert.Steps = cert.Steps[:len(cert.Steps)-1]
				applied = true
			}
		case 4:
			name = "self-dominating subsumption witness"
			if pruneIdx >= 0 {
				s := &cert.Steps[pruneIdx]
				for i, r := range s.Reason {
					if r == analysis.ReasonSubsumed {
						s.Dominator[i] = automata.StateID(i)
						applied = true
						break
					}
				}
			}
		case 5:
			name = "reason flipped to never-match"
			if pruneIdx >= 0 {
				s := &cert.Steps[pruneIdx]
				for i, r := range s.Reason {
					if r == analysis.ReasonSubsumed || r == analysis.ReasonUseless ||
						r == analysis.ReasonUnreachable {
						s.Reason[i] = analysis.ReasonNeverMatch
						applied = true
						break
					}
				}
			}
		}
		if !applied {
			return // certificate has no site for this mutation
		}
		if err := analysis.CheckCertificate(pre, ua, cert); err == nil {
			t.Fatalf("Compile(%q): corrupted certificate (%s) accepted", expr, name)
		}
	})
}
