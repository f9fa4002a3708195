package dfa

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// stepReports steps input through r one cycle at a time with Step, the
// reference for Run, and returns each cycle's report set, sorted.
func stepReports(r *Runner, input []byte) [][]automata.StateID {
	sb := r.Plan().StepBytes()
	var out [][]automata.StateID
	for off := 0; off < len(input); off += sb {
		end := min(off+sb, len(input))
		out = append(out, sortedIDs(r.Step(input[off:end], off+sb-end)))
	}
	return out
}

// runReports steps input through r as the façade's feed does, in chunks of
// the lengths next picks: Run over a chunk's whole cycles and Step on each
// cycle Run stops before, on a cycle a chunk boundary splits (its bytes
// carried to the next chunk) and on the final pad cycle. It returns each
// cycle's report set, sorted.
func runReports(t *testing.T, r *Runner, input []byte, next func() int) [][]automata.StateID {
	t.Helper()
	sb := r.Plan().StepBytes()
	var out [][]automata.StateID
	var pend []byte
	step := func(data []byte, pad int) { out = append(out, sortedIDs(r.Step(data, pad))) }
	for len(input) > 0 {
		p := input[:min(next(), len(input))]
		input = input[len(p):]
		if len(pend) > 0 {
			k := min(sb-len(pend), len(p))
			pend, p = append(pend, p[:k]...), p[k:]
			if len(pend) < sb {
				continue
			}
			step(pend, 0)
			pend = pend[:0]
		}
		for len(p) >= sb {
			n, ids := r.Run(p)
			if n == 0 && ids != nil {
				t.Fatal("Run returned reports without consuming a cycle")
			}
			out = append(out, make([][]automata.StateID, n)...)
			if p = p[n*sb:]; ids != nil {
				out[len(out)-1] = sortedIDs(ids)
			} else if len(p) >= sb {
				step(p[:sb], 0)
				p = p[sb:]
			}
		}
		pend = append(pend, p...)
	}
	if len(pend) > 0 {
		step(pend, sb-len(pend))
	}
	return out
}

// sortedIDs returns a sorted copy of ids, nil when there are none: Step
// promises a cycle's reports as a set, and the two paths may reach sets
// that are event-equivalent rather than equal (see Step).
func sortedIDs(ids []automata.StateID) []automata.StateID {
	if len(ids) == 0 {
		return nil
	}
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// twin drives two runners of one plan and config over the same inputs, one
// run per input on a warm cache, every third run started mid-stream: one
// runner with Step per cycle, the other with Run at chunk boundaries that
// next picks. It returns the two runners: the Step runner's Evictions say
// whether a comparison crossed a clear, the Run runner's skipped count
// whether it took an accelerated skip.
//
// The cache policy sees only constructions, which both paths perform on the
// same cycles, so the two runners hold the same cache throughout: every
// cycle's report set (sorted within the cycle), FellBack and every Stats
// counter must be equal, and so must the deduplicated report events.
func twin(t *testing.T, name string, ua *automata.UnitAutomaton, p *Plan, cfg Config, inputs [][]byte, next func() int) (step, run *Runner) {
	t.Helper()
	step, run = NewRunner(p, cfg), NewRunner(p, cfg)
	for i, input := range inputs {
		if i%3 == 2 {
			step.ResetMidStream()
			run.ResetMidStream()
		} else {
			step.Reset()
			run.Reset()
		}
		want, got := stepReports(step, input), runReports(t, run, input, next)
		if len(got) != len(want) {
			t.Fatalf("%s %+v run %d: %d cycles stepped, %d through Run", name, cfg, i, len(want), len(got))
		}
		for c := range want {
			if !slices.Equal(got[c], want[c]) ||
				!eventsEqual(cycleEvents(ua, got[c]), cycleEvents(ua, want[c])) {
				t.Fatalf("%s %+v run %d cycle %d: Run reports %v, Step %v", name, cfg, i, c, got[c], want[c])
			}
		}
		if step.FellBack() != run.FellBack() || step.Stats() != run.Stats() {
			t.Fatalf("%s %+v run %d: Step runner fell back %v with %+v, Run runner %v with %+v",
				name, cfg, i, step.FellBack(), step.Stats(), run.FellBack(), run.Stats())
		}
	}
	return step, run
}

// cycleEvents returns one cycle's deduplicated report events in canonical
// order, the unit both runners must agree on whatever their caches hold.
func cycleEvents(ua *automata.UnitAutomaton, ids []automata.StateID) []event {
	var out []event
	for _, id := range ids {
		for _, rep := range ua.States[id].Reports {
			if !slices.ContainsFunc(out, func(e event) bool { return e.offset == rep.Offset && e.origin == rep.Origin }) {
				out = append(out, event{offset: rep.Offset, origin: rep.Origin, code: rep.Code})
			}
		}
	}
	return canonical(out)
}

// chunker returns random feed lengths: mostly a few bytes, so that odd
// lengths split cycles, sometimes up to 64.
func chunker(rng *rand.Rand) func() int {
	return func() int { return 1 + rng.Intn(1+rng.Intn(64)) }
}

// twinConfigs are the cache bounds the twin runners are held to: the
// default, and caches small enough that both runners clear them mid-run and
// Run stops on the empty cells a clear leaves behind.
var twinConfigs = []Config{
	DefaultConfig(),
	{MaxStates: 2, BlowupRatio: 10},
	{MaxStates: 3, BlowupRatio: 10},
	{MaxStates: 4, BlowupRatio: 10},
	{MaxStates: 2, BlowupRatio: 0.05},
}

// TestRunMatchesStep holds Run to Step cycle for cycle on random automata,
// latch-heavy ones and the Hamming, TCP and SPM workloads, at rates 2 and 4
// and under every twin config. Some comparison must cross a clear and some
// must skip cycles on an escape table, and the accelerated FuzzRun seed must
// skip too.
func TestRunMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var identity [256]uint16
	for b := range identity {
		identity[b] = uint16(b)
	}
	inputs := func(n int, gen func(int) []byte) [][]byte {
		out := make([][]byte, 4)
		for i := range out {
			out[i] = gen(n + rng.Intn(8))
		}
		return out
	}
	randomBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cleared, skipped := 0, 0 // comparisons across a clear, and with a skip
	check := func(name string, ua *automata.UnitAutomaton, p *Plan, inputs [][]byte) {
		for _, cfg := range twinConfigs {
			step, run := twin(t, name, ua, p, cfg, inputs, chunker(rng))
			if step.Stats().Evictions > 0 {
				cleared++
			}
			if run.skipped > 0 {
				skipped++
			}
		}
	}
	for _, rate := range []int{2, 4} {
		for trial := 0; trial < 20; trial++ {
			nfa := randomByteNFA(rng)
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			check("random", ua, certifiedPlan(t, nfa, ua), inputs(200, func(n int) []byte { return randomInput(rng, n) }))
		}
		for trial := 0; trial < 4; trial++ {
			ua := latchAutomaton(rng, rate, 64*3+rng.Intn(64), trial%2 == 0)
			p, err := NewPlan(ua, identity, 256)
			if err != nil {
				t.Fatal(err)
			}
			check("latch", ua, p, inputs(200, randomBytes))
		}
		for _, name := range []string{"Hamming", "TCP", "SPM"} {
			w, err := workload.Get(name, workload.DefaultScale, 2<<10)
			if err != nil {
				t.Fatal(err)
			}
			ua, err := transform.ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatal(err)
			}
			check(name, ua, certifiedPlan(t, w.Automaton, ua), [][]byte{w.Input, w.Input[1:], w.Input[:len(w.Input)/2], w.Input})
		}
	}
	if cleared == 0 {
		t.Fatal("no comparison crossed a clear; tighten the configs")
	}
	if skipped == 0 {
		t.Fatal("no comparison skipped a cycle on an escape table")
	}
	s := fuzzRunSeeds[len(fuzzRunSeeds)-1]
	if _, run := fuzzRunCase(t, s.seed, s.input, s.cuts); run.skipped == 0 {
		t.Fatalf("FuzzRun seed %d skipped no cycle on an escape table", s.seed)
	}
}

// fuzzRunSeeds are FuzzRun's seed corpus; the last one skips cycles on an
// escape table.
var fuzzRunSeeds = []struct {
	seed        int64
	input, cuts []byte
}{
	{1, []byte("abcABd.\x00\xffxyzabcabc"), []byte{3, 1, 4, 1, 5, 9, 2, 6}},
	{2, []byte("aaaaaaaaaaaaaaaaaaaaBBBBBBBBd.d.d."), []byte{1}},
	{26, []byte("abcAB" + strings.Repeat("xyz.d", 40)), []byte{40}},
}

// FuzzRun is TestRunMatchesStep on a random automaton with its seed, rate and
// config, the input and the chunk lengths chosen by the fuzzer.
func FuzzRun(f *testing.F) {
	for _, s := range fuzzRunSeeds {
		f.Add(s.seed, s.input, s.cuts)
	}
	f.Fuzz(func(t *testing.T, seed int64, input, cuts []byte) {
		if len(input) > 1024 {
			t.Skip()
		}
		fuzzRunCase(t, seed, input, cuts)
	})
}

// fuzzRunCase is one FuzzRun case: three runs of input through twin runners
// of the random automaton, rate and config seed picks, fed in chunks of the
// lengths cuts picks.
func fuzzRunCase(t *testing.T, seed int64, input, cuts []byte) (step, run *Runner) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nfa := randomByteNFA(rng)
	ua, err := transform.ToRate(nfa, 2+2*rng.Intn(2))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() int {
		if len(cuts) == 0 {
			return len(input)
		}
		i++
		return 1 + int(cuts[i%len(cuts)])%67
	}
	cfg := twinConfigs[rng.Intn(len(twinConfigs))]
	return twin(t, "fuzz", ua, certifiedPlan(t, nfa, ua), cfg, [][]byte{input, input, input}, next)
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

// TestAcceleratedRunExact holds Run's escape-table skip to Step and to the
// functional simulator on a rule set built for it. a[^z]*z keeps the DFA in
// a quiet state that loops on every byte but a, b, q and z (b, q and z start
// or end a match; a restarts the loop), and so does the empty set between
// matches; bc reports on c after b, so c loops in both quiet states without
// being in one class with the background; q+ is a reporting state that loops
// on q and must never be accelerated. Escape bytes fall at every offset of a
// cycle, right before and right after a chunk boundary, on the input's last
// byte and in a pad cycle; caches of 2 and 3 states clear again and again,
// so that IDs are reused. Every cycle's report set and Stats must equal a
// Step-only runner's, the events the simulator's, every accelerated state
// must be sound (accelSound), and the runs must skip cycles and demote a
// state whose scans keep stopping short.
func TestAcceleratedRunExact(t *testing.T) {
	set := func(bs ...byte) (m bitvec.V256) {
		for _, b := range bs {
			m.Set(int(b))
		}
		return m
	}
	var notZ bitvec.V256
	for b := 0; b < 256; b++ {
		if b != 'z' {
			notZ.Set(b)
		}
	}
	nfa := automata.NewAutomaton()
	a := nfa.AddState(automata.State{Match: set('a'), Start: automata.StartAllInput})
	loop := nfa.AddState(automata.State{Match: notZ})
	z := nfa.AddState(automata.State{Match: set('z'), Report: true, ReportCode: 1})
	b := nfa.AddState(automata.State{Match: set('b'), Start: automata.StartAllInput})
	c := nfa.AddState(automata.State{Match: set('c'), Report: true, ReportCode: 2})
	q := nfa.AddState(automata.State{Match: set('q'), Start: automata.StartAllInput, Report: true, ReportCode: 3})
	for _, e := range [][2]automata.StateID{{a, loop}, {loop, loop}, {loop, z}, {b, c}, {q, q}} {
		nfa.AddEdge(e[0], e[1])
	}
	nfa.Normalize()

	rng := rand.New(rand.NewSource(56))
	quiet, escapes := []byte("xyc.- \x00\xff"), []byte("abqz")
	// gen returns an input that opens the loop with a and then alternates
	// background runs, whose lengths span 0 to past accelShortRun cycles, with
	// escape bytes; escapes[i] ends it, at an even or odd length.
	gen := func(runs int, maxRun, odd int) []byte {
		in := []byte{'a'}
		for r := 0; r < runs; r++ {
			for n := rng.Intn(maxRun + 1); n > 0; n-- {
				in = append(in, quiet[rng.Intn(len(quiet))])
			}
			in = append(in, escapes[rng.Intn(len(escapes))])
		}
		if len(in)%2 != odd {
			in = slices.Insert(in, 1, 'x')
		}
		return in
	}
	var inputs [][]byte
	for _, odd := range []int{0, 1} {
		inputs = append(inputs,
			gen(40, 6*accelShortRun, odd), // long loops: skips
			gen(200, 5, odd),              // short loops: strikes
			append(gen(30, 3*accelShortRun, odd), strings.Repeat("x", 200)+"z"...))
	}
	// cuts returns chunk lengths that put a chunk boundary at every escape
	// byte of input, shift bytes after it.
	cuts := func(input []byte, shift int) func() int {
		var lens []int
		last := 0
		for i, b := range input {
			if at := i + shift; slices.Contains(escapes, b) && at > last && at < len(input) {
				lens, last = append(lens, at-last), at
			}
		}
		return func() int {
			if len(lens) == 0 {
				return len(input)
			}
			n := lens[0]
			lens = lens[1:]
			return n
		}
	}

	var skipped int64
	demoted := false
	for _, rate := range []int{2, 4} {
		ua, err := transform.ToRate(nfa, rate)
		if err != nil {
			t.Fatal(err)
		}
		p := certifiedPlan(t, nfa, ua)
		for _, cfg := range []Config{DefaultConfig(), {MaxStates: 2, BlowupRatio: 10}, {MaxStates: 3, BlowupRatio: 10}} {
			step, run := NewRunner(p, cfg), NewRunner(p, cfg)
			for i, input := range inputs {
				for _, cut := range []func() int{cuts(input, 0), cuts(input, 1), chunker(rng)} {
					name := fmt.Sprintf("rate %d %+v input %d", rate, cfg, i)
					step.Reset()
					run.Reset()
					want, got := stepReports(step, input), runReports(t, run, input, cut)
					if len(got) != len(want) {
						t.Fatalf("%s: %d cycles stepped, %d through Run", name, len(want), len(got))
					}
					var events []event
					for c := range want {
						if !slices.Equal(got[c], want[c]) {
							t.Fatalf("%s cycle %d: Run reports %v, Step %v", name, c, got[c], want[c])
						}
						for _, e := range cycleEvents(ua, got[c]) {
							e.cycle = int64(c)
							events = append(events, e)
						}
					}
					if sim, _, _ := runSim(ua, input); !eventsEqual(canonical(events), sim) {
						t.Fatalf("%s: Run's events differ from the simulator's:\n got  %v\n want %v", name, canonical(events), sim)
					}
					if step.Stats() != run.Stats() {
						t.Fatalf("%s: Step runner %+v, Run runner %+v", name, step.Stats(), run.Stats())
					}
					if err := accelSound(run); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for id := range run.states {
						if st := run.states[id]; st.table != 0 && run.first[id*(p.classes+1)+p.classes] == 0 {
							demoted = true
						}
					}
				}
			}
			if cfg.MaxStates > 0 && step.Stats().Evictions == 0 {
				t.Fatalf("rate %d %+v: the cache never cleared", rate, cfg)
			}
			skipped += run.skipped
		}
	}
	if skipped == 0 {
		t.Fatal("no cycle was skipped on an escape table")
	}
	if !demoted {
		t.Fatal("no accelerated state was demoted")
	}
}

// accelSound checks r's accelerated states: each is a live, non-reporting
// state whose escape table names a table of r, and every cycle of bytes
// the table lets through is a linked self-loop cell — exactly what lets Run
// skip it. A bit left on a reused ID or a table short of an escape class
// breaks it.
func accelSound(r *Runner) error {
	p := r.p
	stride := p.classes + 1
	for id := 1; id < len(r.states); id++ {
		cur := id * stride
		v := r.first[cur+p.classes]
		if v == 0 || v&1 != 0 {
			continue
		}
		if len(r.states[id].reports) > 0 {
			return fmt.Errorf("reporting state %d is accelerated", id)
		}
		if t := v >> 1; t == 0 || int(t) >= len(r.tables) || t != r.states[id].table {
			return fmt.Errorf("state %d's bit names table %d of %d, its own is %d", id, t, len(r.tables), r.states[id].table)
		}
		var loops [256]bool
		for b, e := range r.tables[v>>1].escape {
			loops[p.classOf[b]] = loops[p.classOf[b]] || e == 0
		}
		for c0 := range p.classes {
			for c1 := range p.classes {
				if !loops[c0] || !loops[c1] {
					continue
				}
				next := r.first[cur+c0]
				if p.stepBytes == 2 {
					next = r.cells[int(next)+c1]
				}
				if int(next) != cur {
					return fmt.Errorf("state %d skips classes (%d, %d), whose cell leads to %d", id, c0, c1, int(next)/stride)
				}
			}
		}
	}
	return nil
}
