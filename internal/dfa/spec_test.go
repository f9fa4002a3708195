package dfa

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// spec is the package's NFA step as it was first written, kept as the
// executable specification Plan.step is held to: one bitvec per table built
// straight from the automaton, a callback per active state, a bounds-checked
// Set per successor and a whole-vector AND per byte position. It shares no
// table and no code with the plan.
type spec struct {
	a         *automata.UnitAutomaton
	stepBytes int
	byteTable [][]*bitvec.Vector
	padMask   []*bitvec.Vector
	startAll  *bitvec.Vector
	startData *bitvec.Vector
	reports   *bitvec.Vector

	active, enabled *bitvec.Vector
}

func newSpec(a *automata.UnitAutomaton) *spec {
	n := a.NumStates()
	s := &spec{
		a:         a,
		stepBytes: a.Rate / a.SymbolUnits,
		startAll:  bitvec.New(n),
		startData: bitvec.New(n),
		reports:   bitvec.New(n),
		active:    bitvec.New(n),
		enabled:   bitvec.New(n),
	}
	all := automata.AllUnits(a.UnitBits)
	for j := 0; j < s.stepBytes; j++ {
		table := make([]*bitvec.Vector, 256)
		for b := range table {
			table[b] = bitvec.New(n)
		}
		s.byteTable = append(s.byteTable, table)
		s.padMask = append(s.padMask, bitvec.New(n))
	}
	for i := range a.States {
		st := &a.States[i]
		for j := 0; j < s.stepBytes; j++ {
			hi, lo := st.Match[2*j], st.Match[2*j+1]
			for b := 0; b < 256; b++ {
				if hi.Has(b>>4) && lo.Has(b&0x0f) {
					s.byteTable[j][b].Set(i)
				}
			}
			if hi == all && lo == all {
				s.padMask[j].Set(i)
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			s.startAll.Set(i)
		case automata.StartOfData:
			s.startData.Set(i)
		}
		if len(st.Reports) > 0 {
			s.reports.Set(i)
		}
	}
	return s
}

// step advances s.active by one cycle.
func (s *spec) step(data []byte, pad int, first bool) {
	dst := s.enabled
	dst.Reset()
	dst.Or(s.startAll)
	if first {
		dst.Or(s.startData)
	} else {
		s.active.ForEach(func(i int) bool {
			for _, t := range s.a.States[i].Succ {
				dst.Set(int(t))
			}
			return true
		})
	}
	real := s.stepBytes - pad
	for j := 0; j < s.stepBytes; j++ {
		if j < real {
			dst.And(s.byteTable[j][data[j]])
		} else {
			dst.And(s.padMask[j])
		}
	}
	s.active, s.enabled = s.enabled, s.active
}

// words is the spec's active set in the plan's layout; reportIDs its
// reporting states, one Get per active state.
func (s *spec) words() []uint64 {
	out := make([]uint64, (s.active.Len()+63)/64)
	for _, i := range s.active.Bits() {
		out[i>>6] |= 1 << (i & 63)
	}
	return out
}

func (s *spec) reportIDs() (out []automata.StateID) {
	for _, i := range s.active.Bits() {
		if s.reports.Get(i) {
			out = append(out, automata.StateID(i))
		}
	}
	return out
}

// lockstep runs input through Plan.step and the spec side by side — cycle
// 0, the middle cycles, and a pad cycle when the length leaves one — and
// fails on the first cycle whose active sets or report rows differ. visit
// sees every source set step is given.
func lockstep(t *testing.T, ua *automata.UnitAutomaton, input []byte, visit func(p *Plan, src []uint64)) {
	t.Helper()
	var identity [256]uint16
	p, err := NewPlan(ua, identity, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newSpec(ua)
	var src []uint64
	bufs := [2][]uint64{make([]uint64, p.words), make([]uint64, p.words)}
	for c := 0; c*p.stepBytes < len(input); c++ {
		dst := bufs[c&1]
		data := input[c*p.stepBytes:]
		pad := max(0, p.stepBytes-len(data))
		data = data[:p.stepBytes-pad]
		if visit != nil && src != nil {
			visit(p, src)
		}
		p.step(dst, src, data, pad)
		s.step(data, pad, c == 0)
		if want := s.words(); !slices.Equal(dst, want) {
			t.Fatalf("cycle %d (pad %d) of %d states at rate %d: active set diverges\n got %x\nwant %x",
				c, pad, ua.NumStates(), ua.Rate, dst, want)
		}
		if got, want := p.appendReports(nil, dst), s.reportIDs(); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: report row %v, want %v", c, got, want)
		}
		src = dst
	}
}

// TestStepMatchesSpec holds Plan.step to the spec on random byte automata
// through the transformation, at both rates, with device state counts that
// span three words or more and end in a partial one, and on the three
// workload shapes the benchmark runs on the DFA.
func TestStepMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; {
		nfa := randomByteNFAOf(rng, 40+rng.Intn(60))
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			if n := ua.NumStates(); n <= 128 || n%64 == 0 {
				continue
			}
			trial++
			// Odd lengths end a rate-4 run on a pad cycle.
			lockstep(t, ua, randomInput(rng, 60+rng.Intn(80)), nil)
		}
	}
	for _, name := range []string{"SPM", "Hamming", "TCP"} {
		w, err := workload.Get(name, workload.DefaultScale, 2<<10+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			lockstep(t, ua, w.Input, nil)
		}
	}
}

// latchAutomaton builds a unit automaton of n states directly, one latch
// layout per word by index mod 4: (0) many always-on latches, so the word
// saturates and the shortcut fires; (1) the same plus one latch that is
// rarely on, so the word is usually one bit short; (2) a single latch that
// comes and goes; (3) no latch. The other states of every word are random.
// With allOn, layouts 1 and 2 are replaced by 0 and 3: every latch is always
// on, so from the second cycle the whole source set is saturated.
func latchAutomaton(rng *rand.Rand, rate, n int, allOn bool) *automata.UnitAutomaton {
	ua := automata.NewUnitAutomaton(4, rate, 2)
	all := automata.AllUnits(4)
	other := func(i int) automata.StateID {
		for {
			if t := rng.Intn(n); t != i {
				return automata.StateID(t)
			}
		}
	}
	for i := 0; i < n; i++ {
		var st automata.UnitState
		for j := 0; j < rate; j++ {
			st.Match[j] = automata.UnitSet(rng.Intn(1<<16)) | 1<<rng.Intn(16)
			if rng.Intn(3) == 0 {
				st.Match[j] = all
			}
		}
		for e := rng.Intn(4); e > 0; e-- {
			st.Succ = append(st.Succ, other(i))
		}
		if rng.Intn(4) == 0 {
			st.Start = automata.StartKind(1 + rng.Intn(2))
		}
		layout, bit := (i>>6)%4, i&63
		if allOn {
			layout = layout / 2 * 3
		}
		switch {
		case layout <= 1 && bit%3 == 0:
			// Always on: enabled every cycle, matches every input.
			st.Start = automata.StartAllInput
			st.Match = [automata.MaxRate]automata.UnitSet{all, all, all, all}
			st.Succ = append(st.Succ, automata.StateID(i))
		case layout == 1 && bit == 1, layout == 2 && bit == 1:
			// Comes and goes: set by random predecessors, holds while the
			// input's first nibble is low.
			st.Start = automata.StartNone
			st.Match[0] = 0x00ff
			st.Succ = append(st.Succ, automata.StateID(i))
		}
		if rng.Intn(5) == 0 {
			st.Reports = []automata.Report{{Offset: uint8(rng.Intn(rate)), Code: int32(i), Origin: int32(i)}}
		}
		ua.AddState(st)
	}
	ua.Normalize()
	return ua
}

// TestStepLatchCases forces every branch of the two saturated-latch
// shortcuts and checks each was taken. Per word, in a set that is not
// saturated as a whole: all of several latches on (the word's union is ORed
// at once), exactly one of them off, a single latch on and off, an active
// word without latches. And whole sets with every latch on, whose active
// states are some covered (skipped) and some not (walked).
func TestStepLatchCases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var saturated, oneShort, singleOn, singleOff, none, wholeSet, skipped, walked int
	tally := func(p *Plan, src []uint64) {
		if p.saturated(src) {
			wholeSet++
			for w, v := range src {
				skipped += bits.OnesCount64(v & p.covered[w] &^ p.latch[w])
				walked += bits.OnesCount64(v &^ p.covered[w])
			}
			return
		}
		for w, v := range src {
			l := p.latch[w]
			switch missing := bits.OnesCount64(l &^ v); {
			case l == 0 && v != 0:
				none++
			case bits.OnesCount64(l) == 1 && missing == 0:
				singleOn++
			case bits.OnesCount64(l) == 1:
				singleOff++
			case missing == 0 && l != 0:
				saturated++
			case missing == 1:
				oneShort++
			}
		}
	}
	for _, rate := range []int{2, 4} {
		for _, n := range []int{64*4 + 23, 64*7 + 1} {
			for _, allOn := range []bool{false, true} {
				input := make([]byte, 301)
				rng.Read(input)
				lockstep(t, latchAutomaton(rng, rate, n, allOn), input, tally)
			}
		}
	}
	for name, n := range map[string]int{
		"saturated word": saturated, "one latch short": oneShort, "single latch on": singleOn,
		"single latch off": singleOff, "no latch": none, "saturated set": wholeSet,
		"covered state skipped": skipped, "uncovered state walked": walked,
	} {
		if n == 0 {
			t.Errorf("no source set was in the %q case; the generator no longer forces it", name)
		}
	}
	t.Logf("source words: %d saturated, %d one short, %d/%d single latch on/off, %d without latch; %d saturated sets, %d covered states skipped, %d walked",
		saturated, oneShort, singleOn, singleOff, none, wholeSet, skipped, walked)
}

// TestDFAMidStreamStart holds ResetMidStream to its contract in lockstep: a run
// started at byte k reports, cycle for cycle, what Plan.step and the spec
// step from an all-zero source set (the unanchored starts join, the
// start-of-data states do not), on a warm runner and again on the same one.
// The identity partition makes every cached state the raw set, so the
// runner's report rows must equal the plan's exactly.
func TestDFAMidStreamStart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var identity [256]uint16
	for b := range identity {
		identity[b] = uint16(b)
	}
	for trial := 0; trial < 20; trial++ {
		nfa := randomByteNFAOf(rng, 8+rng.Intn(40))
		nfa.States[0].Start = automata.StartOfData // an anchored start to keep quiet
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(ua, identity, 256)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(p, DefaultConfig())
			input := randomInput(rng, 80+rng.Intn(40))
			for _, k := range []int{0, p.stepBytes, 2 * p.stepBytes, 10 * p.stepBytes, 10 * p.stepBytes} {
				r.ResetMidStream()
				s := newSpec(ua)
				src := make([]uint64, p.words)
				dst := make([]uint64, p.words)
				for c := 0; k+c*p.stepBytes < len(input); c++ {
					data := input[k+c*p.stepBytes:]
					pad := max(0, p.stepBytes-len(data))
					data = data[:p.stepBytes-pad]
					p.step(dst, src, data, pad)
					s.step(data, pad, false)
					if want := s.words(); !slices.Equal(dst, want) {
						t.Fatalf("trial %d rate %d from byte %d, cycle %d: plan and spec diverge", trial, rate, k, c)
					}
					if got, want := r.Step(data, pad), p.appendReports(nil, dst); !slices.Equal(got, want) {
						t.Fatalf("trial %d rate %d from byte %d, cycle %d: runner reports %v, plan %v", trial, rate, k, c, got, want)
					}
					src, dst = dst, src
				}
			}
		}
	}
}
