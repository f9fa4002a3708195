package prefilter

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

func TestFoldByte(t *testing.T) {
	for b := 0; b < 256; b++ {
		got := FoldByte(byte(b))
		want := byte(b)
		if b >= 'A' && b <= 'Z' {
			want = byte(b) + ('a' - 'A')
		}
		if got != want {
			t.Fatalf("FoldByte(%#x) = %#x, want %#x", b, got, want)
		}
	}
}

// naiveFoldSpans is the case-insensitive reference: every occurrence of
// every canonical literal under byte-wise ASCII folding.
func naiveFoldSpans(data []byte, lits [][]byte) map[[2]int]bool {
	folded := make([]byte, len(data))
	for i, b := range data {
		folded[i] = FoldByte(b)
	}
	out := map[[2]int]bool{}
	for _, l := range lits {
		cl := FoldLiteral(l)
		for i := 0; i+len(cl) <= len(folded); i++ {
			if bytes.Equal(folded[i:i+len(cl)], cl) {
				out[[2]int{i, i + len(cl)}] = true
			}
		}
	}
	return out
}

// mixCase returns data with each ASCII letter's case flipped pseudo-randomly.
func mixCase(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	for i, b := range out {
		if rng.Intn(2) == 0 {
			switch {
			case b >= 'a' && b <= 'z':
				out[i] = b - ('a' - 'A')
			case b >= 'A' && b <= 'Z':
				out[i] = b + ('a' - 'A')
			}
		}
	}
	return out
}

// TestScannerFoldMatchesNaive drives the fold mode of all four strategies
// against the folding reference on haystacks with case-mangled plants.
func TestScannerFoldMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := map[string][][]byte{
		"memchr": {[]byte("Needle")},
		"swar": {
			[]byte("ab"), []byte("aBc"), []byte("neat"),
			[]byte{0x00, 0x80, 0xff}, []byte("ZZq"),
		},
		"aho-corasick": func() [][]byte {
			var ls [][]byte
			for i := 0; i < 12; i++ {
				ls = append(ls, []byte(fmt.Sprintf("LiT%02d", i)))
			}
			return append(ls, []byte("qX"))
		}(),
		"shift": {[]byte("NeedleInHay"), []byte("haystack"), []byte("HAYRICK-9")},
	}
	for name, lits := range sets {
		s := NewScannerFold(lits, true)
		if s.Strategy() != name {
			t.Fatalf("strategy for %d literals = %q, want %q", len(lits), s.Strategy(), name)
		}
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(300)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte('a' + rng.Intn(5))
			}
			for p := 0; p < 3; p++ {
				l := mixCase(rng, lits[rng.Intn(len(lits))])
				copy(data[rng.Intn(n):], l)
			}
			data = mixCase(rng, data)
			want := naiveFoldSpans(data, lits)
			got := scanSpans(t, s, data)
			if !spansEqual(got, want) {
				t.Fatalf("%s trial %d: fold scanner spans %v != naive %v\ndata=%q lits=%q",
					name, trial, got, want, data, lits)
			}
		}
	}
}

// TestScannerFoldExactUnchanged pins that fold=false still matches exactly:
// a case variant of the literal must NOT be found.
func TestScannerFoldExactUnchanged(t *testing.T) {
	for _, lits := range [][][]byte{
		{[]byte("needle")},
		{[]byte("needle"), []byte("hay")},
	} {
		s := NewScannerFold(lits, false)
		if got := scanSpans(t, s, []byte("..NEEDLE..HAY..")); len(got) != 0 {
			t.Fatalf("exact scanner found case variants: %v", got)
		}
	}
}

func TestTailHitFold(t *testing.T) {
	lits := [][]byte{[]byte("abxy")}
	// "aBX" tail + 1 pad byte completes a case variant of abxy.
	if !TailHitFold([]byte("zzzaBX"), lits, 1, true) {
		t.Error("folded tail hazard missed")
	}
	if TailHitFold([]byte("zzzaBX"), lits, 1, false) {
		t.Error("exact tail check matched a case variant")
	}
	// Non-alphabetic bytes fold to themselves either way.
	if !TailHitFold([]byte("zzzab"), lits, 2, true) {
		t.Error("folded tail hazard missed on exact-case suffix")
	}
}

func TestFromLiteralsFold(t *testing.T) {
	ex := FromLiteralsFold([][]byte{[]byte("NeeDLE"), []byte("HAY")}, true, Config{})
	if !ex.OK || !ex.FoldCase {
		t.Fatalf("extraction = %+v", ex)
	}
	got := map[string]bool{}
	for _, l := range ex.Literals {
		got[string(l)] = true
	}
	if !got["needle"] || !got["hay"] || len(got) != 2 {
		t.Fatalf("canonical literals = %q", ex.Literals)
	}
	if exact := FromLiterals([][]byte{[]byte("NeeDLE")}, Config{}); !exact.OK || exact.FoldCase || string(exact.Literals[0]) != "NeeDLE" {
		t.Fatalf("exact extraction changed: %+v", exact)
	}
}

// caseChain builds a byte automaton matching one literal with both cases
// accepted at every alphabetic position ("[Ss][Ee][Ll]..." style).
func caseChain(lit string) *automata.Automaton {
	a := &automata.Automaton{}
	for i := 0; i < len(lit); i++ {
		var v bitvec.V256
		b := lit[i]
		v.Set(int(b))
		if b >= 'a' && b <= 'z' {
			v.Set(int(b - ('a' - 'A')))
		}
		st := automata.State{Match: v}
		if i == 0 {
			st.Start = automata.StartAllInput
		}
		if i == len(lit)-1 {
			st.Report = true
		}
		if i > 0 {
			a.States[i-1].Succ = append(a.States[i-1].Succ, automata.StateID(i))
		}
		a.States = append(a.States, st)
	}
	return a
}

// TestExtractPrefersFold pins the selection rule: a case-insensitive chain
// whose exact variant cross product explodes the caps (truncating the
// literal) must come out as one full-length canonical folded literal.
func TestExtractPrefersFold(t *testing.T) {
	ex := Extract(caseChain("select-from-where"), Config{})
	if !ex.OK {
		t.Fatalf("extraction failed: %s", ex.Reason)
	}
	if !ex.FoldCase {
		t.Fatalf("expected folded extraction, got exact literals %q", ex.Literals)
	}
	if len(ex.Literals) != 1 || string(ex.Literals[0]) != "select-from-where" {
		t.Fatalf("folded literals = %q, want [select-from-where]", ex.Literals)
	}
	// A case-sensitive chain must stay exact.
	if ex := Extract(literalChain("needle"), Config{}); !ex.OK || ex.FoldCase {
		t.Fatalf("exact chain extraction = %+v", ex)
	}
}
