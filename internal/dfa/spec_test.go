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

// load makes set, in the plan's layout, the spec's active set.
func (s *spec) load(set []uint64) {
	s.active.Reset()
	for w, v := range set {
		for ; v != 0; v &= v - 1 {
			s.active.Set(w<<6 | bits.TrailingZeros64(v))
		}
	}
}

// lockstep runs input through Plan.step, on one latch cache as a runner
// does, and the spec side by side — cycle 0, the middle cycles, and a pad
// cycle when the length leaves one — and fails on the first cycle whose
// active sets or report rows differ. visit sees every source set step is
// given, with the cache as step finds it.
func lockstep(t testing.TB, ua *automata.UnitAutomaton, input []byte, visit func(p *Plan, src []uint64, c *latchCache)) {
	t.Helper()
	var identity [256]uint16
	p, err := NewPlan(ua, identity, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newSpec(ua)
	c := p.newLatchCache()
	var src []uint64
	bufs := [2][]uint64{make([]uint64, p.words), make([]uint64, p.words)}
	for cyc := 0; cyc*p.stepBytes < len(input); cyc++ {
		dst := bufs[cyc&1]
		data := input[cyc*p.stepBytes:]
		pad := max(0, p.stepBytes-len(data))
		data = data[:p.stepBytes-pad]
		if visit != nil && src != nil {
			visit(p, src, &c)
		}
		p.step(dst, src, data, pad, &c)
		s.step(data, pad, cyc == 0)
		if want := s.words(); !slices.Equal(dst, want) {
			t.Fatalf("cycle %d (pad %d) of %d states at rate %d: active set diverges\n got %x\nwant %x",
				cyc, pad, ua.NumStates(), ua.Rate, dst, want)
		}
		if got, want := p.appendReports(nil, dst), s.reportIDs(); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: report row %v, want %v", cyc, got, want)
		}
		src = dst
	}
}

// replay steps sets, in the order given, through one latch cache and holds
// each result to the spec's step from the same set on input's next bytes:
// the miss path's access pattern, where a runner steps from whichever cached
// state missed, a mid-stream start's empty set, or the fallback's raw set.
func replay(t testing.TB, ua *automata.UnitAutomaton, sets [][]uint64, input []byte) {
	t.Helper()
	var identity [256]uint16
	p, err := NewPlan(ua, identity, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, c, dst := newSpec(ua), p.newLatchCache(), make([]uint64, p.words)
	for k, src := range sets {
		off := k * p.stepBytes % (len(input) - p.stepBytes + 1)
		data := input[off : off+p.stepBytes]
		p.step(dst, src, data, 0, &c)
		s.load(src)
		s.step(data, 0, false)
		if want := s.words(); !slices.Equal(dst, want) {
			t.Fatalf("set %d of %d (%d states, rate %d): active set diverges\n got %x\nwant %x",
				k, len(sets), ua.NumStates(), ua.Rate, dst, want)
		}
	}
}

// visited runs input in lockstep and returns the source sets it stepped
// from, led by the empty one a mid-stream start steps from.
func visited(t testing.TB, ua *automata.UnitAutomaton, input []byte) [][]uint64 {
	sets := [][]uint64{make([]uint64, (ua.NumStates()+63)/64)}
	lockstep(t, ua, input, func(_ *Plan, src []uint64, _ *latchCache) { sets = append(sets, slices.Clone(src)) })
	return sets
}

// saturated reports whether every latch is active in src.
func saturated(p *Plan, src []uint64) bool {
	for w, l := range p.latch {
		if src[w]&l != l {
			return false
		}
	}
	return true
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

// TestStepLatchCases forces every branch of the latch cache and of the
// saturated-set shortcut and checks each was taken. Per word, in a set that
// is not saturated as a whole: all of several latches on, exactly one of
// them off, a single latch on and off, an active word without latches. Per
// step: the cache extended by latches that came on (a whole word of them at
// once among them) and rebuilt because a latch went off. And whole sets with
// every latch on, whose active states are some covered (skipped) and some
// not (walked).
func TestStepLatchCases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var saturatedWord, oneShort, singleOn, singleOff, none, wholeSet, skipped, walked int
	var extended, wholeWord, rebuilt int
	tally := func(p *Plan, src []uint64, c *latchCache) {
		grew, shrank := false, false
		for w, v := range src {
			l := v & p.latch[w]
			grew = grew || l&^c.on[w] != 0
			shrank = shrank || c.on[w]&^l != 0
			if c.on[w] == 0 && l == p.latch[w] && bits.OnesCount64(l) > 1 {
				wholeWord++
			}
		}
		switch {
		case shrank:
			rebuilt++
		case grew:
			extended++
		}
		if saturated(p, src) {
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
				saturatedWord++
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
		"saturated word": saturatedWord, "one latch short": oneShort, "single latch on": singleOn,
		"single latch off": singleOff, "no latch": none, "saturated set": wholeSet,
		"covered state skipped": skipped, "uncovered state walked": walked,
		"cache extended": extended, "word's latches came on at once": wholeWord,
		"cache rebuilt (a latch went off)": rebuilt,
	} {
		if n == 0 {
			t.Errorf("no source set was in the %q case; the generator no longer forces it", name)
		}
	}
	t.Logf("source words: %d saturated, %d one short, %d/%d single latch on/off, %d without latch; %d saturated sets, %d covered states skipped, %d walked; cache %d extended (%d whole words), %d rebuilt",
		saturatedWord, oneShort, singleOn, singleOff, none, wholeSet, skipped, walked, extended, wholeWord, rebuilt)
}

// TestStepCacheOutOfOrder steps the source sets that runs on random automata,
// latch-heavy ones and SPM visit through one latch cache in shuffled order,
// each checked against the spec's step from the same set. A runner's misses
// step from whichever cached state missed, in no order the cache can
// predict, so in-order lockstep alone leaves the rebuild path barely tested.
func TestStepCacheOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	check := func(ua *automata.UnitAutomaton, input []byte) {
		sets := visited(t, ua, input)
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		replay(t, ua, sets, input)
	}
	for trial := 0; trial < 10; trial++ {
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(randomByteNFAOf(rng, 40+rng.Intn(60)), rate)
			if err != nil {
				t.Fatal(err)
			}
			check(ua, randomInput(rng, 100))
			input := make([]byte, 200)
			rng.Read(input)
			check(latchAutomaton(rng, rate, 64*5+rng.Intn(64), trial%2 == 0), input)
		}
	}
	w, err := workload.Get("SPM", workload.DefaultScale, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, 4)
	if err != nil {
		t.Fatal(err)
	}
	check(ua, w.Input)
}

// FuzzStepCache is TestStepCacheOutOfOrder with the automaton's seed, the
// input and the order of the visited sets chosen by the fuzzer.
func FuzzStepCache(f *testing.F) {
	f.Add(int64(1), []byte("latches come and go"), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(int64(2), []byte{0x00, 0xff, 0x10, 0xef, 0x7f, 0x80}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, input, order []byte) {
		if len(input) < 2 || len(input) > 512 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ua := latchAutomaton(rng, 2+2*rng.Intn(2), 64+rng.Intn(64*4), rng.Intn(2) == 0)
		sets := visited(t, ua, input)
		for i := len(sets) - 1; i > 0 && len(order) > 0; i, order = i-1, order[1:] {
			j := int(order[0]) % (i + 1)
			sets[i], sets[j] = sets[j], sets[i]
		}
		replay(t, ua, sets, input)
	})
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
				lc := p.newLatchCache()
				for c := 0; k+c*p.stepBytes < len(input); c++ {
					data := input[k+c*p.stepBytes:]
					pad := max(0, p.stepBytes-len(data))
					data = data[:p.stepBytes-pad]
					p.step(dst, src, data, pad, &lc)
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
