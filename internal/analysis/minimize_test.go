package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// runAndCompare asserts the two automata produce identical funcsim output
// on the input: equal counters and equal event streams up to state
// renumbering (minimization changes state IDs, never events).
func runAndCompare(t *testing.T, name string, a, b *automata.UnitAutomaton, input []byte) {
	t.Helper()
	units := funcsim.BytesToUnits(input, 4)
	ra := funcsim.RunUnits(a, units)
	rb := funcsim.RunUnits(b, units)
	if ra.Reports != rb.Reports || ra.ReportCycles != rb.ReportCycles || ra.Cycles != rb.Cycles {
		t.Fatalf("%s: counters diverged: %d/%d/%d vs %d/%d/%d", name,
			ra.Reports, ra.ReportCycles, ra.Cycles, rb.Reports, rb.ReportCycles, rb.Cycles)
	}
	if len(ra.Events) != len(rb.Events) {
		t.Fatalf("%s: event counts diverged: %d vs %d", name, len(ra.Events), len(rb.Events))
	}
	for i := range ra.Events {
		x, y := ra.Events[i], rb.Events[i]
		x.State, y.State = 0, 0
		if x != y {
			t.Fatalf("%s: event %d diverged: %+v vs %+v", name, i, ra.Events[i], rb.Events[i])
		}
	}
}

// TestMinimizeWorkloadsCertified runs Minimize over every workload at
// rates 1 and 4, requires the certificate (and the symbol-class
// certificate) to verify, and cross-checks the minimized automaton's
// functional-simulator output against the original's.
func TestMinimizeWorkloadsCertified(t *testing.T) {
	reduced := map[string]int{}
	for _, name := range workload.Names() {
		w, err := workload.Get(name, 0.02, 4000)
		if err != nil {
			t.Fatal(err)
		}
		sc := SymbolClasses(w.Automaton)
		if err := CheckSymbolClasses(w.Automaton, sc); err != nil {
			t.Fatalf("%s: symbol-class certificate rejected: %v", name, err)
		}
		if sc.Count() < 2 || sc.Count() > 256 {
			t.Fatalf("%s: implausible symbol class count %d", name, sc.Count())
		}
		for _, rate := range []int{1, 4} {
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			pre := ua.Clone()
			res := Minimize(ua)
			if res.Before-res.After != res.Pruned+res.BisimMerged+res.PrefixMerged {
				t.Fatalf("%s r%d: inconsistent result %+v", name, rate, res)
			}
			if err := CheckCertificate(pre, ua, res.Cert); err != nil {
				t.Fatalf("%s r%d: certificate rejected: %v", name, rate, err)
			}
			if err := ua.Validate(); err != nil {
				t.Fatalf("%s r%d: minimized automaton invalid: %v", name, rate, err)
			}
			runAndCompare(t, name, pre, ua, w.Input)
			reduced[name] += res.Removed()
		}
	}
	// The acceptance floor: minimization must measurably shrink the
	// Levenshtein mesh and the multi-rule prefix-sharing workload.
	for _, name := range []string{"Levenshtein", "SPM"} {
		if reduced[name] == 0 {
			t.Errorf("%s: expected a state reduction > 0, got none", name)
		}
	}
}

// TestMinimizeKeepsAnalyzerClean verifies Analyze finds no errors or
// warnings on minimized automata: merging must not mix nibble phases,
// break report-code coherence, or exceed capacity.
func TestMinimizeKeepsAnalyzerClean(t *testing.T) {
	for _, name := range []string{"SPM", "Brill", "Levenshtein", "Fermi"} {
		w, err := workload.Get(name, 0.02, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{1, 4} {
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			Minimize(ua)
			r := Analyze(ua, Options{})
			if n := r.Count(SevError) + r.Count(SevWarn); n != 0 {
				t.Fatalf("%s r%d: analyzer found %d error/warn diagnostics after minimize: %v",
					name, rate, n, r.Findings(SevWarn))
			}
		}
	}
}

// TestBisimMergesSymmetricLoop exercises the case compile-time signature
// merging cannot reach: two self-looping states with identical behaviour
// have different literal successor lists (each points at itself), but the
// bisimulation quotient folds them.
func TestBisimMergesSymmetricLoop(t *testing.T) {
	rep := []automata.Report{{Offset: 1, Code: 7, Origin: 7}}
	a := nib(2,
		// Two distinguishable entry states (different match) so the
		// co-activation pass cannot merge the loops via equal preds.
		automata.UnitState{Match: [4]automata.UnitSet{0x0001, full()}, Start: automata.StartAllInput, Succ: []automata.StateID{2}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0002, full()}, Start: automata.StartAllInput, Succ: []automata.StateID{3}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0004, 0x0008}, Reports: rep, Succ: []automata.StateID{2}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0004, 0x0008}, Reports: rep, Succ: []automata.StateID{3}},
	)
	pre := a.Clone()
	res := Minimize(a)
	if res.BisimMerged == 0 {
		t.Fatalf("bisimulation found no merge in the symmetric loop: %+v", res)
	}
	if err := CheckCertificate(pre, a, res.Cert); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	input := []byte{0x12, 0x48, 0x48, 0x24, 0x48}
	runAndCompare(t, "symmetric-loop", pre, a, input)
}

// TestPrefixCollapseSharedPrefix exercises cross-rule prefix collapse: two
// rules starting with the same symbol share one start state afterwards,
// with the fan-out merged.
func TestPrefixCollapseSharedPrefix(t *testing.T) {
	a := nib(2,
		// Rule 1: 'f' then 'o' -> report 1. Rule 2: 'f' then 'x' -> report 2.
		automata.UnitState{Match: [4]automata.UnitSet{0x0040, 0x0040}, Start: automata.StartAllInput, Succ: []automata.StateID{2}}, // 'f' = 0x66
		automata.UnitState{Match: [4]automata.UnitSet{0x0040, 0x0040}, Start: automata.StartAllInput, Succ: []automata.StateID{3}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0040, 0x8000}, Reports: []automata.Report{{Offset: 1, Code: 1, Origin: 1}}}, // 'o' = 0x6F
		automata.UnitState{Match: [4]automata.UnitSet{0x0080, 0x1000}, Reports: []automata.Report{{Offset: 1, Code: 2, Origin: 2}}}, // 'x' = 0x78
	)
	pre := a.Clone()
	res := Minimize(a)
	if res.PrefixMerged == 0 {
		t.Fatalf("prefix collapse found no merge across the shared start: %+v", res)
	}
	if err := CheckCertificate(pre, a, res.Cert); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	runAndCompare(t, "shared-prefix", pre, a, []byte("ffofxoxf"))
}

// minimizedSPM builds a minimized SPM automaton with its pre-minimization
// clone and verified certificate, shared by the corruption tests.
func minimizedSPM(t *testing.T) (pre, min *automata.UnitAutomaton, cert *Certificate) {
	t.Helper()
	w, err := workload.Get("SPM", 0.02, 16)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre = ua.Clone()
	res := Minimize(ua)
	if res.Removed() == 0 || len(res.Cert.Steps) == 0 {
		t.Fatalf("SPM produced no certified reduction: %+v", res)
	}
	if err := CheckCertificate(pre, ua, res.Cert); err != nil {
		t.Fatalf("pristine certificate rejected: %v", err)
	}
	return pre, ua, res.Cert
}

// copyCert deep-copies a certificate so corruption never aliases the
// pristine chain.
func copyCert(c *Certificate) *Certificate {
	out := &Certificate{Steps: make([]MergeStep, len(c.Steps))}
	for i, s := range c.Steps {
		out.Steps[i] = MergeStep{
			Kind:       s.Kind,
			NumClasses: s.NumClasses,
			Class:      append([]automata.StateID(nil), s.Class...),
			Reason:     append([]uint8(nil), s.Reason...),
			Dominator:  append([]automata.StateID(nil), s.Dominator...),
		}
	}
	return out
}

// TestCheckCertificateRejectsCorruption corrupts a verified certificate in
// every structural dimension a single edit can reach and requires the
// checker to reject each one.
func TestCheckCertificateRejectsCorruption(t *testing.T) {
	pre, min, cert := minimizedSPM(t)
	mergeIdx, pruneIdx := -1, -1
	for i, s := range cert.Steps {
		if s.Kind != StepPrune && mergeIdx < 0 {
			mergeIdx = i
		}
		if s.Kind == StepPrune && pruneIdx < 0 {
			pruneIdx = i
		}
	}
	if mergeIdx < 0 {
		t.Fatalf("certificate has no merge step to corrupt")
	}
	corruptions := map[string]func(c *Certificate) bool{
		"class out of range": func(c *Certificate) bool {
			s := &c.Steps[mergeIdx]
			s.Class[0] = automata.StateID(s.NumClasses)
			return true
		},
		"negative class in merge step": func(c *Certificate) bool {
			c.Steps[mergeIdx].Class[0] = -1
			return true
		},
		"phantom empty class": func(c *Certificate) bool {
			c.Steps[mergeIdx].NumClasses++
			return true
		},
		"dropped final step": func(c *Certificate) bool {
			c.Steps = c.Steps[:len(c.Steps)-1]
			return true
		},
		"wrong step kind": func(c *Certificate) bool {
			c.Steps[mergeIdx].Kind = StepKind(99)
			return true
		},
		"self-dominating subsumption witness": func(c *Certificate) bool {
			if pruneIdx < 0 {
				return false
			}
			s := &c.Steps[pruneIdx]
			for i, r := range s.Reason {
				if r == ReasonSubsumed {
					s.Dominator[i] = automata.StateID(i)
					return true
				}
			}
			return false
		},
		"reason flipped to never-match": func(c *Certificate) bool {
			if pruneIdx < 0 {
				return false
			}
			s := &c.Steps[pruneIdx]
			for i, r := range s.Reason {
				if r == ReasonSubsumed || r == ReasonUseless || r == ReasonUnreachable {
					// The state was classified before never-match would
					// have applied, so every position accepts something.
					s.Reason[i] = ReasonNeverMatch
					return true
				}
			}
			return false
		},
	}
	for name, corrupt := range corruptions {
		c := copyCert(cert)
		if !corrupt(c) {
			t.Logf("%s: not applicable to this certificate, skipped", name)
			continue
		}
		if err := CheckCertificate(pre, min, c); err == nil {
			t.Errorf("%s: corrupted certificate accepted", name)
		}
	}
}

// TestCheckCertificateRejectsBogusMerge hand-builds a certificate that
// claims two observably different states are bisimilar and requires the
// obligation check (not just final structural equality) to catch it.
func TestCheckCertificateRejectsBogusMerge(t *testing.T) {
	a := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1, 2}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0002}, Reports: []automata.Report{{Offset: 0, Code: 1, Origin: 1}}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0004}, Reports: []automata.Report{{Offset: 0, Code: 2, Origin: 2}}},
	)
	// Claim states 1 and 2 merge even though their matches and reports
	// differ; make the "minimized" automaton the quotient the bogus
	// certificate would produce, so only the obligations can reject it.
	bogus := &Certificate{Steps: []MergeStep{{
		Kind:       StepBisim,
		Class:      []automata.StateID{0, 1, 1},
		NumClasses: 2,
	}}}
	quotient := nib(1,
		automata.UnitState{Match: [4]automata.UnitSet{full()}, Start: automata.StartAllInput, Succ: []automata.StateID{1}},
		automata.UnitState{Match: [4]automata.UnitSet{0x0002}, Reports: []automata.Report{{Offset: 0, Code: 1, Origin: 1}}},
	)
	err := CheckCertificate(a, quotient, bogus)
	if err == nil {
		t.Fatal("bogus bisimulation certificate accepted")
	}
	if !strings.Contains(err.Error(), "differ") {
		t.Fatalf("rejection did not come from the behaviour obligations: %v", err)
	}
}

// TestCheckCertificateRejectsWrongOutput verifies the final structural
// equality: a valid chain replayed against a different target automaton
// must fail.
func TestCheckCertificateRejectsWrongOutput(t *testing.T) {
	pre, _, cert := minimizedSPM(t)
	if err := CheckCertificate(pre, pre, cert); err == nil {
		t.Fatal("certificate accepted against the unminimized automaton")
	}
}

// TestSymbolClassesSmall pins the class partition of a tiny two-pattern
// automaton and verifies corruption is rejected.
func TestSymbolClassesSmall(t *testing.T) {
	w, err := workload.Get("ExactMatch", 0.02, 16)
	if err != nil {
		t.Fatal(err)
	}
	cert := SymbolClasses(w.Automaton)
	if err := CheckSymbolClasses(w.Automaton, cert); err != nil {
		t.Fatalf("pristine symbol-class certificate rejected: %v", err)
	}
	// The partition is numbered by first occurrence: each witness is its
	// class's lowest member.
	for b := 0; b < 256; b++ {
		if w := cert.Witness[cert.Class[b]]; int(w) > b {
			t.Fatalf("byte 0x%02x precedes its class witness 0x%02x", b, w)
		}
	}
	// Moving a non-witness byte into another class must break the
	// per-byte column check.
	moved := *cert
	for b := 255; b >= 0; b-- {
		if c := moved.Class[b]; int(moved.Witness[c]) != b {
			moved.Class[b] = (c + 1) % uint16(moved.Count())
			break
		}
	}
	if err := CheckSymbolClasses(w.Automaton, &moved); err == nil || !strings.Contains(err.Error(), "distinguishes byte") {
		t.Fatalf("moved-byte corruption: got %v, want a column mismatch", err)
	}
	// Merging two distinct classes must break the witness check.
	bad := *cert
	merged := -1
	for b := 0; b < 256; b++ {
		if bad.Class[b] != bad.Class[0] {
			merged = b
			bad.Class[b] = bad.Class[0]
			break
		}
	}
	if merged < 0 {
		t.Fatal("automaton has a single symbol class; cannot corrupt")
	}
	if err := CheckSymbolClasses(w.Automaton, &bad); err == nil {
		t.Fatal("merged-class corruption accepted")
	}
	// An artificially split class must fail the maximality check.
	split := *cert
	split.Witness = append(append([]byte(nil), split.Witness...), split.Witness[0])
	if err := CheckSymbolClasses(w.Automaton, &split); err == nil {
		t.Fatal("duplicate-witness corruption accepted")
	}
	// A class split off with its own witness must fail maximality.
	fine := *cert
	fine.Witness = append([]byte(nil), cert.Witness...)
	for b := 255; b >= 0; b-- {
		if int(fine.Witness[fine.Class[b]]) != b {
			fine.Class[b] = uint16(len(fine.Witness))
			fine.Witness = append(fine.Witness, byte(b))
			break
		}
	}
	if err := CheckSymbolClasses(w.Automaton, &fine); err == nil || !strings.Contains(err.Error(), "indistinguishable") {
		t.Fatalf("split-class corruption: got %v, want a maximality failure", err)
	}
}

// TestTranspose64 holds the checker's bit-matrix transpose to the
// bit-by-bit definition.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		got := a
		transpose64(&got)
		for i := range a {
			for j := 0; j < 64; j++ {
				if a[i]>>j&1 != got[j]>>i&1 {
					t.Fatalf("trial %d: bit %d of row %d did not become bit %d of row %d", trial, j, i, i, j)
				}
			}
		}
	}
}
