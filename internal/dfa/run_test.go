package dfa

import (
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/automata"
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
// next picks. It returns how many states the Step runner dropped in clears.
//
// The cache policy sees only constructions, which both paths perform on the
// same cycles, so the two runners hold the same cache throughout: every
// cycle's report set (sorted within the cycle), FellBack and every Stats
// counter must be equal, and so must the deduplicated report events.
func twin(t *testing.T, name string, ua *automata.UnitAutomaton, p *Plan, cfg Config, inputs [][]byte, next func() int) (evictions int64) {
	t.Helper()
	step, run := NewRunner(p, cfg), NewRunner(p, cfg)
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
	return step.Stats().Evictions
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
// and under every twin config.
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
	cleared := 0 // comparisons across a clear
	check := func(name string, ua *automata.UnitAutomaton, p *Plan, inputs [][]byte) {
		for _, cfg := range twinConfigs {
			if twin(t, name, ua, p, cfg, inputs, chunker(rng)) > 0 {
				cleared++
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
}

// FuzzRun is TestRunMatchesStep on a random automaton with its seed, rate and
// config, the input and the chunk lengths chosen by the fuzzer.
func FuzzRun(f *testing.F) {
	f.Add(int64(1), []byte("abcABd.\x00\xffxyzabcabc"), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(int64(2), []byte("aaaaaaaaaaaaaaaaaaaaBBBBBBBBd.d.d."), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, input, cuts []byte) {
		if len(input) > 1024 {
			t.Skip()
		}
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
		twin(t, "fuzz", ua, certifiedPlan(t, nfa, ua), cfg, [][]byte{input, input, input}, next)
	})
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
