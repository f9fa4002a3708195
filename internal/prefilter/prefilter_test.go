package prefilter

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

// literalChain builds a byte automaton matching the given literals exactly
// (one start-anywhere chain per literal, last state reporting).
func literalChain(lits ...string) *automata.Automaton {
	a := &automata.Automaton{}
	for code, l := range lits {
		first := automata.StateID(len(a.States))
		for i := 0; i < len(l); i++ {
			var v bitvec.V256
			v.Set(int(l[i]))
			st := automata.State{Match: v}
			if i == 0 {
				st.Start = automata.StartAllInput
			}
			if i == len(l)-1 {
				st.Report = true
				st.ReportCode = int32(code)
			}
			if i > 0 {
				a.States[int(first)+i-1].Succ = append(a.States[int(first)+i-1].Succ, automata.StateID(len(a.States)))
			}
			a.States = append(a.States, st)
		}
	}
	return a
}

func TestExtractLiteralChain(t *testing.T) {
	a := literalChain("needle", "HAYSTACK")
	ex := Extract(a, Config{})
	if !ex.OK {
		t.Fatalf("extraction failed: %s", ex.Reason)
	}
	got := map[string]bool{}
	for _, l := range ex.Literals {
		got[string(l)] = true
	}
	if !got["needle"] || !got["HAYSTACK"] || len(got) != 2 {
		t.Fatalf("literals = %q", ex.Literals)
	}
	if ex.MinLen != 6 || ex.MaxLen != 8 {
		t.Fatalf("min/max len = %d/%d", ex.MinLen, ex.MaxLen)
	}
}

func TestExtractWideClassVerdict(t *testing.T) {
	// One report state accepting 200 byte values: no usable literal.
	var v bitvec.V256
	for b := 0; b < 200; b++ {
		v.Set(b)
	}
	a := &automata.Automaton{States: []automata.State{{Match: v, Start: automata.StartAllInput, Report: true}}}
	ex := Extract(a, Config{})
	if ex.OK {
		t.Fatalf("expected no-filter verdict, got literals %q", ex.Literals)
	}
	if ex.Reason == "" {
		t.Fatal("no-filter verdict must carry a reason")
	}
}

func TestExtractSmallClassVariants(t *testing.T) {
	// "ab[cd]" -> variants abc, abd.
	var vc bitvec.V256
	vc.Set('c')
	vc.Set('d')
	a := literalChain("ab")
	// Turn the chain's report state into a middle state and append the class.
	a.States[1].Report = false
	a.States[1].Succ = append(a.States[1].Succ, 2)
	a.States = append(a.States, automata.State{Match: vc, Report: true})
	ex := Extract(a, Config{})
	if !ex.OK {
		t.Fatalf("extraction failed: %s", ex.Reason)
	}
	got := map[string]bool{}
	for _, l := range ex.Literals {
		got[string(l)] = true
	}
	if !got["abc"] || !got["abd"] || len(got) != 2 {
		t.Fatalf("literals = %q", ex.Literals)
	}
}

func TestExtractStopsAtStart(t *testing.T) {
	// A cyclic prefix ((ab)+c): extraction must still find a suffix and the
	// walk must terminate.
	a := literalChain("abc")
	// Loop c's predecessor chain: b -> a (making (ab)+c).
	a.States[1].Succ = append(a.States[1].Succ, 0)
	sort.Slice(a.States[1].Succ, func(i, j int) bool { return a.States[1].Succ[i] < a.States[1].Succ[j] })
	ex := Extract(a, Config{})
	if !ex.OK {
		t.Fatalf("extraction failed: %s", ex.Reason)
	}
	if len(ex.Literals) != 1 || string(ex.Literals[0]) != "abc" {
		t.Fatalf("literals = %q", ex.Literals)
	}
}

func TestMinimize(t *testing.T) {
	lits := [][]byte{[]byte("abcd"), []byte("bc"), []byte("bc"), []byte("xyz")}
	got := Minimize(lits)
	want := map[string]bool{"bc": true, "xyz": true}
	if len(got) != 2 {
		t.Fatalf("minimized = %q", got)
	}
	for _, l := range got {
		if !want[string(l)] {
			t.Fatalf("unexpected literal %q", l)
		}
	}
}

func TestTailHit(t *testing.T) {
	lits := [][]byte{[]byte("abXY")}
	cases := []struct {
		data string
		pad  int
		want bool
	}{
		{"zzzabX", 1, true},  // "abX" + 1 pad byte completes abXY
		{"zzzab", 2, true},   // "ab" + 2 pad bytes
		{"zzzab", 1, false},  // needs 2 pad bytes, only 1
		{"zzzabX", 0, false}, // no pad, no tail hazard
		{"zzz", 2, false},    // suffix mismatch
		{"ab", 2, true},      // whole data is the prefix
	}
	for _, c := range cases {
		if got := TailHit([]byte(c.data), lits, c.pad); got != c.want {
			t.Errorf("TailHit(%q, pad=%d) = %v, want %v", c.data, c.pad, got, c.want)
		}
	}
	// A 1-byte literal can sit entirely inside a 1-byte pad.
	if !TailHit([]byte("zzz"), [][]byte{[]byte("q")}, 1) {
		t.Error("1-byte literal must tail-hit any 1-byte pad")
	}
}

// naiveSpans is the multi-substring reference: every occurrence of every
// literal by direct comparison.
func naiveSpans(data []byte, lits [][]byte) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, l := range lits {
		for i := 0; i+len(l) <= len(data); i++ {
			if bytes.Equal(data[i:i+len(l)], l) {
				out[[2]int{i, i + len(l)}] = true
			}
		}
	}
	return out
}

// scanSpans runs s over data and returns the emitted spans, failing t on a
// breach of the Scanner contract: an occurrence emitted twice, or a start
// lower than one emitted before it.
func scanSpans(t testing.TB, s Scanner, data []byte) map[[2]int]bool {
	t.Helper()
	out := map[[2]int]bool{}
	var order [][2]int
	s.Scan(data, func(st, en int) {
		sp := [2]int{st, en}
		if out[sp] {
			t.Errorf("%s emitted %v twice", s.Strategy(), sp)
		}
		if n := len(order); n > 0 && st < order[n-1][0] {
			t.Errorf("%s emitted start %d after %v", s.Strategy(), st, order[n-1])
		}
		out[sp] = true
		order = append(order, sp)
	})
	return out
}

func spansEqual(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// randomLits draws n random literals of lengths lo..hi over the first alpha
// letters and returns them minimized.
func randomLits(rng *rand.Rand, n, lo, hi, alpha int) [][]byte {
	var ls [][]byte
	for i := 0; i < n; i++ {
		l := make([]byte, lo+rng.Intn(hi-lo+1))
		for j := range l {
			l[j] = byte('a' + rng.Intn(alpha))
		}
		ls = append(ls, l)
	}
	return Minimize(ls)
}

// TestScannerMatchesNaive drives all four strategies against the naive
// reference on seeded random haystacks with planted literals, including
// overlapping and boundary placements.
func TestScannerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := map[string][][]byte{
		"memchr": {[]byte("needle")},
		"swar": {
			[]byte("ab"), []byte("abc"), []byte("neat"),
			[]byte{0x00, 0x80, 0xff}, []byte("zzq"),
		},
		"aho-corasick": randomLits(rng, 20, 2, 7, 4),
		// Literals longer than the window, sharing blocks, some shorter than
		// a shift: every window offset and the end of data get exercised.
		"shift": randomLits(rng, 12, 3, 10, 4),
	}
	for name, lits := range sets {
		s := NewScanner(lits)
		if s.Strategy() != name {
			t.Fatalf("strategy for %d literals = %q, want %q", len(lits), s.Strategy(), name)
		}
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(300)
			data := make([]byte, n)
			for i := range data {
				// A small alphabet keeps accidental occurrences frequent.
				data[i] = byte('a' + rng.Intn(5))
			}
			// Plant literals, including truncated at the end.
			for p := 0; p < 3; p++ {
				l := lits[rng.Intn(len(lits))]
				at := rng.Intn(n)
				copy(data[at:], l)
			}
			want := naiveSpans(data, lits)
			got := scanSpans(t, s, data)
			if !spansEqual(got, want) {
				t.Fatalf("%s trial %d: scanner spans %v != naive %v\ndata=%q lits=%q",
					name, trial, got, want, data, lits)
			}
		}
	}
}

// TestScannerWordBoundary pins SWAR lane handling: anchors in every lane of
// the 8-byte words and across the word/tail boundary.
func TestScannerWordBoundary(t *testing.T) {
	lits := [][]byte{[]byte("xy"), []byte("qr")}
	s := NewScanner(lits)
	for shift := 0; shift < 16; shift++ {
		data := bytes.Repeat([]byte("."), 40)
		copy(data[shift:], "xy")
		copy(data[shift+17:], "qr")
		want := naiveSpans(data, lits)
		if got := scanSpans(t, s, data); !spansEqual(got, want) {
			t.Fatalf("shift %d: %v != %v", shift, got, want)
		}
	}
}

// everyScanner builds each strategy whose precondition lits meets, whatever
// NewScannerFold would pick. lits must be canonical under fold.
func everyScanner(lits [][]byte, fold bool) []Scanner {
	ss := []Scanner{newSWARScanner(lits, fold), newACScanner(lits, fold)}
	if len(lits) == 1 {
		ss = append(ss, newMemchrScanner(lits[0], fold))
	}
	if shortest(lits) >= 2 {
		ss = append(ss, newShiftScanner(lits, fold))
	}
	return ss
}

// FuzzScannerMatchesNaive cross-checks every scanner strategy, exact and
// folded, against the naive reference on fuzz-chosen haystacks and literal
// sets.
func FuzzScannerMatchesNaive(f *testing.F) {
	f.Add([]byte("the needle in the haystack"), []byte("needle"), []byte("hay"), uint8(3), false)
	f.Add([]byte("aaaaaaa"), []byte("aa"), []byte("aaa"), uint8(20), false)
	f.Add([]byte{0, 1, 2, 0x80, 0xff}, []byte{0x80, 0xff}, []byte{0}, uint8(1), false)
	f.Add([]byte("The NEEDLE in the Haystack"), []byte("needle"), []byte("HAY"), uint8(2), true)
	// ClamAV-like: several 24-byte literals, so shifts above 1 and literals
	// longer than the window are verified.
	f.Add([]byte("..X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*.."),
		[]byte("X5O!P%@AP[4\\PZX54(P^)7CC"), []byte("EICAR-STANDARD-ANTIVIRUS"), uint8(6), false)
	f.Fuzz(func(t *testing.T, data, l1, l2 []byte, extra uint8, fold bool) {
		if len(l1) == 0 || len(l1) > 32 || len(l2) == 0 || len(l2) > 32 {
			t.Skip()
		}
		lits := [][]byte{l1, l2}
		// extra synthesizes larger sets so the wide-set paths are exercised too.
		for i := 0; i < int(extra)%24; i++ {
			lits = append(lits, append([]byte{byte('A' + i)}, l1...))
		}
		want := naiveSpans
		if fold {
			lits, want = FoldLiterals(lits), naiveFoldSpans
		}
		lits = Minimize(lits)
		if len(lits) == 0 {
			t.Skip()
		}
		wantSpans := want(data, lits)
		for _, s := range everyScanner(lits, fold) {
			if got := scanSpans(t, s, data); !spansEqual(got, wantSpans) {
				t.Fatalf("%s (fold=%v) != naive on %q / %q", s.Strategy(), fold, data, lits)
			}
		}
	})
}

// TestNewScannerStrategies pins each cell of the selection rule.
func TestNewScannerStrategies(t *testing.T) {
	mk := func(k, minLen int) [][]byte {
		var ls [][]byte
		for i := 0; i < k; i++ {
			l := []byte(fmt.Sprintf("%0*d", minLen+i%2, i))
			ls = append(ls, l)
		}
		return ls
	}
	for _, c := range []struct {
		k, minLen int
		want      string
	}{
		{1, 2, "memchr"},
		{1, 15, "memchr"},
		{1, 16, "shift"},
		{2, 8, "shift"},
		{8, 24, "shift"},
		{9, 3, "shift"},
		{512, 4, "shift"},
		{2, 7, "swar"},
		{8, 2, "swar"},
		{8, 4, "swar"},
		{9, 2, "aho-corasick"},
		{512, 2, "aho-corasick"},
	} {
		lits := mk(c.k, c.minLen)
		if got := NewScanner(lits).Strategy(); got != c.want {
			t.Errorf("k=%d minLen=%d -> %s, want %s", c.k, c.minLen, got, c.want)
		}
		if got := NewScannerFold(lits, true).Strategy(); got != c.want {
			t.Errorf("fold k=%d minLen=%d -> %s, want %s", c.k, c.minLen, got, c.want)
		}
	}
}
