package nfa_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/nfa"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// spec is the NFA step as it was first written, kept as the executable
// specification Plan.Step is held to: one bitvec per unit position and
// nibble built straight from the automaton, in state order, a callback per
// active state, a bounds-checked Set per successor and a whole-vector AND
// per unit. It shares no table and no code with the plan.
type spec struct {
	a         *automata.UnitAutomaton
	table     [][16]*bitvec.Vector // [unit position][nibble]
	dontCare  []*bitvec.Vector     // [unit position]
	startAll  *bitvec.Vector
	startData *bitvec.Vector
	reports   *bitvec.Vector

	active, enabled *bitvec.Vector
}

func newSpec(a *automata.UnitAutomaton) *spec {
	n := a.NumStates()
	s := &spec{
		a:         a,
		table:     make([][16]*bitvec.Vector, a.Rate),
		dontCare:  make([]*bitvec.Vector, a.Rate),
		startAll:  bitvec.New(n),
		startData: bitvec.New(n),
		reports:   bitvec.New(n),
		active:    bitvec.New(n),
		enabled:   bitvec.New(n),
	}
	all := automata.AllUnits(4)
	for g := range s.table {
		for v := range s.table[g] {
			s.table[g][v] = bitvec.New(n)
		}
		s.dontCare[g] = bitvec.New(n)
	}
	for i := range a.States {
		st := &a.States[i]
		for g := 0; g < a.Rate; g++ {
			for v := 0; v < 16; v++ {
				if st.Match[g].Has(v) {
					s.table[g][v].Set(i)
				}
			}
			if st.Match[g] == all {
				s.dontCare[g].Set(i)
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

// units expands a cycle's Input into its units, -1 for a padded unit: two
// nibbles per byte position, or the one nibble at rate 1.
func (s *spec) units(in nfa.Input) []int {
	if s.a.Rate == 1 {
		if in[0] == nfa.Pad {
			return []int{-1}
		}
		return []int{int(in[0])}
	}
	var out []int
	for j := 0; j < s.a.Rate/2; j++ {
		if in[j] == nfa.Pad {
			out = append(out, -1, -1)
		} else {
			out = append(out, int(in[j]>>4), int(in[j]&0xf))
		}
	}
	return out
}

// injects reports whether cycle begins at a symbol boundary.
func injects(a *automata.UnitAutomaton, cycle int64) bool {
	return cycle*int64(a.Rate)%int64(a.SymbolUnits) == 0
}

// step advances s.active by one cycle.
func (s *spec) step(in nfa.Input, cycle int64, first bool) {
	dst := s.enabled
	dst.Reset()
	if injects(s.a, cycle) {
		dst.Or(s.startAll)
	}
	if first {
		dst.Or(s.startData)
	}
	s.active.ForEach(func(i int) bool {
		for _, t := range s.a.States[i].Succ {
			dst.Set(int(t))
		}
		return true
	})
	for g, u := range s.units(in) {
		if u < 0 {
			dst.And(s.dontCare[g])
		} else {
			dst.And(s.table[g][u])
		}
	}
	s.active, s.enabled = s.enabled, s.active
}

// words is the spec's active set in the plan's rank layout; reportIDs its
// reporting states in rank order, one Get per rank.
func (s *spec) words(order []automata.StateID) []uint64 {
	out := make([]uint64, (len(order)+63)/64)
	for r, st := range order {
		if s.active.Get(int(st)) {
			out[r>>6] |= 1 << (r & 63)
		}
	}
	return out
}

func (s *spec) reportIDs(order []automata.StateID) (out []automata.StateID) {
	for _, st := range order {
		if s.active.Get(int(st)) && s.reports.Get(int(st)) {
			out = append(out, st)
		}
	}
	return out
}

// load makes set, in the plan's rank layout, the spec's active set.
func (s *spec) load(set []uint64, order []automata.StateID) {
	s.active.Reset()
	for w, v := range set {
		for ; v != 0; v &= v - 1 {
			s.active.Set(int(order[w<<6|bits.TrailingZeros64(v)]))
		}
	}
}

// cycles splits data into the Inputs of p's cycles: Positions bytes per
// cycle, the last one padded, or one nibble per cycle at rate 1.
func cycles(p *nfa.Plan, data []byte) []nfa.Input {
	var out []nfa.Input
	if p.Rate() == 1 {
		for _, b := range data {
			out = append(out, nfa.Input{uint16(b >> 4)}, nfa.Input{uint16(b & 0xf)})
		}
		return out
	}
	sb := p.Positions()
	for off := 0; off < len(data); off += sb {
		in := nfa.Input{nfa.Pad, nfa.Pad}
		for j := 0; j < sb && off+j < len(data); j++ {
			in[j] = uint16(data[off+j])
		}
		out = append(out, in)
	}
	return out
}

// identity is the rank order of a plan built with a nil order.
func identity(n int) []automata.StateID {
	order := make([]automata.StateID, n)
	for i := range order {
		order[i] = automata.StateID(i)
	}
	return order
}

// lockstep runs input through Plan.Step, on one latch memo as a stepper
// does, and the spec side by side — cycle 0 with the start-of-data states,
// the middle cycles, and a pad cycle when the length leaves one — and fails
// on the first cycle whose active sets, report rows or source counts
// differ. order ranks the states (nil: identity). visit sees every source
// set Step is given, with its cycle and the memo as Step finds it.
func lockstep(t testing.TB, ua *automata.UnitAutomaton, order []automata.StateID, input []byte, visit func(p *nfa.Plan, src []uint64, cycle int64, c *nfa.Latches)) {
	t.Helper()
	p := nfa.NewPlan(ua, order)
	order = p.Order()
	s := newSpec(ua)
	c := p.NewLatches()
	var src []uint64
	bufs := [2][]uint64{make([]uint64, p.Words()), make([]uint64, p.Words())}
	var reports []automata.StateID
	for cyc, in := range cycles(p, input) {
		dst := bufs[cyc&1]
		if visit != nil && src != nil {
			visit(p, src, int64(cyc), &c)
		}
		want := s.active.Count()
		var n int
		n, reports = p.Step(dst, src, in, int64(cyc), cyc == 0, &c, reports[:0])
		s.step(in, int64(cyc), cyc == 0)
		if n != want {
			t.Fatalf("cycle %d: %d states in the source set, want %d", cyc, n, want)
		}
		if want := s.words(order); !slices.Equal(dst, want) {
			t.Fatalf("cycle %d (input %x) of %d states at rate %d: active set diverges\n got %x\nwant %x",
				cyc, in, ua.NumStates(), ua.Rate, dst, want)
		}
		if want := s.reportIDs(order); !slices.Equal(reports, want) {
			t.Fatalf("cycle %d: report row %v, want %v", cyc, reports, want)
		}
		if got := p.AppendStates(nil, dst); len(got) != s.active.Count() {
			t.Fatalf("cycle %d: AppendStates lists %d of %d states", cyc, len(got), s.active.Count())
		}
		src = dst
	}
}

// replay steps sets, in the order given and at consecutive cycles (so that
// at rates where cycles split symbols, injecting and quiet cycles
// alternate), through one latch memo and holds each result to the spec's
// step from the same set on input's next cycle: the miss path's access
// pattern, where a runner steps from whichever cached state missed, a
// mid-stream start's empty set, or the fallback's raw set.
func replay(t testing.TB, ua *automata.UnitAutomaton, sets [][]uint64, input []byte) {
	t.Helper()
	p := nfa.NewPlan(ua, nil)
	order, ins := p.Order(), cycles(p, input)
	s, c, dst := newSpec(ua), p.NewLatches(), make([]uint64, p.Words())
	for k, src := range sets {
		in := ins[k%max(len(ins)-1, 1)] // not the padded last cycle
		p.Step(dst, src, in, int64(k), false, &c, nil)
		s.load(src, order)
		s.step(in, int64(k), false)
		if want := s.words(order); !slices.Equal(dst, want) {
			t.Fatalf("set %d of %d (%d states, rate %d): active set diverges\n got %x\nwant %x",
				k, len(sets), ua.NumStates(), ua.Rate, dst, want)
		}
	}
}

// visited runs input in lockstep and returns the source sets it stepped
// from, led by the empty one a mid-stream start steps from.
func visited(t testing.TB, ua *automata.UnitAutomaton, input []byte) [][]uint64 {
	sets := [][]uint64{make([]uint64, (ua.NumStates()+63)/64)}
	lockstep(t, ua, nil, input, func(_ *nfa.Plan, src []uint64, _ int64, _ *nfa.Latches) {
		sets = append(sets, slices.Clone(src))
	})
	return sets
}

// saturated reports whether every latch is active in src.
func saturated(p *nfa.Plan, src []uint64) bool {
	for w, l := range p.Latch() {
		if src[w]&l != l {
			return false
		}
	}
	return true
}

// TestStepMatchesSpec holds Plan.Step to the spec on random byte automata
// through the transformation, at every rate and in identity and shuffled
// rank order, with device state counts that span three words or more and
// end in a partial one; on the workload shapes the benchmark runs; and on a
// 16-bit wide automaton, whose rate-2 and rate-1 cycles split symbols.
func TestStepMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; {
		nfa := randomByteNFAOf(rng, 40+rng.Intn(60))
		for _, rate := range []int{1, 2, 4} {
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			if n := ua.NumStates(); n <= 128 || n%64 == 0 {
				continue
			}
			trial++
			var order []automata.StateID
			if trial%2 == 0 {
				order = identity(ua.NumStates())
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			// Odd lengths end a rate-4 run on a pad cycle.
			lockstep(t, ua, order, randomInput(rng, 60+rng.Intn(80)), nil)
		}
	}
	for _, name := range []string{"SPM", "Hamming", "TCP"} {
		w, err := workload.Get(name, workload.DefaultScale, 2<<10+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{1, 2, 4} {
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			lockstep(t, ua, nil, w.Input, nil)
		}
	}
	wa, input := wideAutomaton(rng)
	for _, rate := range []int{1, 2, 4} {
		ua, err := transform.WideToRate(wa, rate)
		if err != nil {
			t.Fatal(err)
		}
		lockstep(t, ua, nil, input, nil)
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

// TestStepLatchCases forces every branch of the latch memo and of the
// saturated-set shortcut and checks each was taken. Per word, in a set that
// is not saturated as a whole: all of several latches on, exactly one of
// them off, a single latch on and off, an active word without latches. Per
// step: the memo extended by latches that came on (a whole word of them at
// once among them) and rebuilt because a latch went off. And whole sets with
// every latch on, whose active states are some covered (skipped) and some
// not (walked), on injecting cycles and, at rate 1, on quiet ones, where
// the covered set leaves out the states that only enable starts.
func TestStepLatchCases(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var saturatedWord, oneShort, singleOn, singleOff, none, wholeSet, wholeQuiet, skipped, walked int
	var extended, wholeWord, rebuilt int
	tally := func(p *nfa.Plan, src []uint64, cycle int64, c *nfa.Latches) {
		grew, shrank := false, false
		latch, on := p.Latch(), c.On()
		for w, v := range src {
			l := v & latch[w]
			grew = grew || l&^on[w] != 0
			shrank = shrank || on[w]&^l != 0
			if on[w] == 0 && l == latch[w] && bits.OnesCount64(l) > 1 {
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
			inject := cycle*int64(p.Rate())%int64(p.SymbolUnits()) == 0
			if !inject {
				wholeQuiet++
			}
			covered := p.Covered(inject)
			for w, v := range src {
				skipped += bits.OnesCount64(v & covered[w] &^ latch[w])
				walked += bits.OnesCount64(v &^ covered[w])
			}
			return
		}
		for w, v := range src {
			l := latch[w]
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
	for _, rate := range []int{1, 2, 4} {
		for _, n := range []int{64*4 + 23, 64*7 + 1} {
			for _, allOn := range []bool{false, true} {
				input := make([]byte, 301)
				rng.Read(input)
				lockstep(t, latchAutomaton(rng, rate, n, allOn), nil, input, tally)
			}
		}
	}
	for name, n := range map[string]int{
		"saturated word": saturatedWord, "one latch short": oneShort, "single latch on": singleOn,
		"single latch off": singleOff, "no latch": none, "saturated set": wholeSet,
		"saturated set on a quiet cycle": wholeQuiet,
		"covered state skipped":          skipped, "uncovered state walked": walked,
		"cache extended": extended, "word's latches came on at once": wholeWord,
		"cache rebuilt (a latch went off)": rebuilt,
	} {
		if n == 0 {
			t.Errorf("no source set was in the %q case; the generator no longer forces it", name)
		}
	}
	t.Logf("source words: %d saturated, %d one short, %d/%d single latch on/off, %d without latch; %d saturated sets (%d quiet), %d covered states skipped, %d walked; cache %d extended (%d whole words), %d rebuilt",
		saturatedWord, oneShort, singleOn, singleOff, none, wholeSet, wholeQuiet, skipped, walked, extended, wholeWord, rebuilt)
}

// TestStepCacheOutOfOrder steps the source sets that runs on random automata,
// latch-heavy ones and SPM visit through one latch memo in shuffled order,
// each checked against the spec's step from the same set. A runner's misses
// step from whichever cached state missed, in no order the memo can
// predict, so in-order lockstep alone leaves the rebuild path barely tested.
func TestStepCacheOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	check := func(ua *automata.UnitAutomaton, input []byte) {
		sets := visited(t, ua, input)
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		replay(t, ua, sets, input)
	}
	for trial := 0; trial < 10; trial++ {
		for _, rate := range []int{1, 2, 4} {
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
		ua := latchAutomaton(rng, []int{1, 2, 4}[rng.Intn(3)], 64+rng.Intn(64*4), rng.Intn(2) == 0)
		sets := visited(t, ua, input)
		for i := len(sets) - 1; i > 0 && len(order) > 0; i, order = i-1, order[1:] {
			j := int(order[0]) % (i + 1)
			sets[i], sets[j] = sets[j], sets[i]
		}
		replay(t, ua, sets, input)
	})
}

// randomByteNFAOf builds a random byte automaton of n states over a limited
// alphabet, with full-set states (pad don't-cares), anchored and unanchored
// starts and reports.
func randomByteNFAOf(rng *rand.Rand, n int) *automata.Automaton {
	nfa := automata.NewAutomaton()
	alpha := []byte("abcABd.\x00\xff")
	for i := 0; i < n; i++ {
		var m bitvec.V256
		switch rng.Intn(4) {
		case 0: // full set: exercises pad don't-care
			m = bitvec.V256{}.Not()
		default:
			for j := 1 + rng.Intn(3); j > 0; j-- {
				m.Set(int(alpha[rng.Intn(len(alpha))]))
			}
		}
		st := automata.State{Match: m}
		switch rng.Intn(3) {
		case 0:
			st.Start = automata.StartAllInput
		case 1:
			if i == 0 {
				st.Start = automata.StartOfData
			}
		}
		if rng.Intn(3) == 0 {
			st.Report = true
			st.ReportCode = int32(i + 1)
		}
		nfa.AddState(st)
	}
	nfa.States[0].Start = automata.StartAllInput
	for i := 0; i < n; i++ {
		for e := rng.Intn(3); e > 0; e-- {
			nfa.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
	}
	nfa.States[n-1].Report = true
	nfa.States[n-1].ReportCode = int32(n)
	nfa.Normalize()
	return nfa
}

func randomInput(rng *rand.Rand, n int) []byte {
	alpha := []byte("abcABd.\x00\xffxyz")
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return out
}

// wideAutomaton builds subsequence rules item .* item .* end over a small
// 16-bit alphabet, one anchored at the start of data, and a stream of
// big-endian symbols for them.
func wideAutomaton(rng *rand.Rand) (*automata.WideAutomaton, []byte) {
	items := []uint16{0x4141, 0x4142, 0x4241, 0x7f00, 0x00ff}
	const end uint16 = 0x3b3b
	wa := automata.NewWideAutomaton()
	for p := 0; p < 4; p++ {
		start := automata.StartAllInput
		if p == 0 {
			start = automata.StartOfData
		}
		first := wa.AddState(automata.WideState{Match: []uint16{items[rng.Intn(len(items))]}, Start: start})
		gap := wa.AddState(automata.WideState{Match: append(slices.Clone(items), end)})
		second := wa.AddState(automata.WideState{Match: []uint16{items[rng.Intn(len(items))]}})
		last := wa.AddState(automata.WideState{Match: []uint16{end}, Report: true, ReportCode: int32(p + 1)})
		wa.AddEdge(first, gap)
		wa.AddEdge(gap, gap)
		wa.AddEdge(gap, second)
		wa.AddEdge(first, second)
		wa.AddEdge(second, last)
	}
	wa.Normalize()
	var input []byte
	for i := 0; i < 200; i++ {
		sym := items[rng.Intn(len(items))]
		if i%5 == 4 {
			sym = end
		}
		input = append(input, byte(sym>>8), byte(sym))
	}
	return wa, input
}
