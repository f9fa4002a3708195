package dfa

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// event is one deduplicated report, the unit of output equivalence: the
// lazy DFA must emit exactly the functional simulator's events even when
// symbol-class row sharing makes its raw state sets differ. Equal means
// equal as a set per cycle (Runner.Step's order contract), so both sides
// come back from canonical, which orders a cycle's events by (offset,
// origin) — unique within a cycle after deduplication.
type event struct {
	cycle  int64
	offset uint8
	origin int32
	code   int32
}

func canonical(events []event) []event {
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.cycle, b.cycle), cmp.Compare(a.offset, b.offset), cmp.Compare(a.origin, b.origin))
	})
	return events
}

// runDFA executes input on a fresh runner and returns the deduplicated
// events plus reports/report-cycles accounting (the funcsim.Run contract).
func runDFA(t *testing.T, r *Runner, ua *automata.UnitAutomaton, input []byte) (events []event, reports, reportCycles int64) {
	t.Helper()
	return runDFAEach(r, ua, input, func() {})
}

// runDFAEach is runDFA calling each after every Step, for tests that watch
// the cache while it runs.
func runDFAEach(r *Runner, ua *automata.UnitAutomaton, input []byte, each func()) (events []event, reports, reportCycles int64) {
	r.Reset()
	sb := r.Plan().StepBytes()
	cycles := (len(input) + sb - 1) / sb
	if cycles == 0 {
		return nil, 0, 0
	}
	seen := make(map[[2]int64]bool)
	for c := 0; c < cycles; c++ {
		start := c * sb
		end := start + sb
		pad := 0
		if end > len(input) {
			pad = end - len(input)
			end = len(input)
		}
		ids := r.Step(input[start:end], pad)
		each()
		if len(ids) == 0 {
			continue
		}
		clear(seen)
		n := int64(0)
		for _, id := range ids {
			for _, rep := range ua.States[id].Reports {
				k := [2]int64{int64(rep.Offset), int64(rep.Origin)}
				if seen[k] {
					continue
				}
				seen[k] = true
				n++
				events = append(events, event{
					cycle: int64(c), offset: rep.Offset, origin: rep.Origin, code: rep.Code,
				})
			}
		}
		reports += n
		reportCycles++
	}
	return canonical(events), reports, reportCycles
}

// runSim is the reference: the functional simulator over the same padded
// unit stream.
func runSim(a *automata.UnitAutomaton, input []byte) (events []event, reports, reportCycles int64) {
	units := funcsim.BytesToUnits(input, 4)
	res := funcsim.NewUnitSimulator(a).Run(units, funcsim.Options{RecordEvents: true})
	for _, ev := range res.Events {
		events = append(events, event{
			cycle: ev.Cycle, offset: uint8(ev.Unit - ev.Cycle*int64(a.Rate)), origin: ev.Origin, code: ev.Code,
		})
	}
	return canonical(events), res.Reports, res.ReportCycles
}

func eventsEqual(a, b []event) bool { return slices.Equal(a, b) }

// randomByteNFA builds a small random byte automaton over a limited
// alphabet (so symbol classes genuinely collapse) with random structure.
func randomByteNFA(rng *rand.Rand) *automata.Automaton {
	return randomByteNFAOf(rng, 2+rng.Intn(10))
}

// randomByteNFAOf is randomByteNFA with the state count given.
func randomByteNFAOf(rng *rand.Rand, n int) *automata.Automaton {
	nfa := automata.NewAutomaton()
	alpha := []byte("abcABd.\x00\xff")
	for i := 0; i < n; i++ {
		var m bitvec.V256
		switch rng.Intn(4) {
		case 0: // full set: exercises pad don't-care
			for b := 0; b < 256; b++ {
				m.Set(b)
			}
		default:
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
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
	// Guarantee a start state.
	nfa.States[0].Start = automata.StartAllInput
	for i := 0; i < n; i++ {
		e := rng.Intn(3)
		for j := 0; j < e; j++ {
			nfa.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
	}
	// Guarantee at least one report state.
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

func certifiedPlan(t testing.TB, nfa *automata.Automaton, ua *automata.UnitAutomaton) *Plan {
	t.Helper()
	cert := analysis.SymbolClasses(nfa)
	if err := analysis.CheckSymbolClasses(nfa, cert); err != nil {
		t.Fatalf("symbol classes: %v", err)
	}
	p, err := NewPlan(ua, cert.Class, cert.Count())
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

func TestSupported(t *testing.T) {
	nfa := randomByteNFA(rand.New(rand.NewSource(1)))
	for _, rate := range []int{2, 4} {
		ua, err := transform.ToRate(nfa, rate)
		if err != nil {
			t.Fatal(err)
		}
		if ok, reason := Supported(ua); !ok {
			t.Fatalf("rate %d: unsupported: %s", rate, reason)
		}
	}
	ua, err := transform.ToRate(nfa, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Supported(ua); ok {
		t.Fatal("rate 1 must be unsupported (cycles split bytes)")
	}
}

// TestDifferentialVsFuncsim drives random automata and inputs through the
// lazy DFA under the certified symbol-class partition and the identity
// partition, at both supported rates, including odd lengths (pad cycles)
// and repeated runs on one runner (warm cache). The plans run in a fixed
// order: ranging over a map of them made the rng stream, and so the inputs
// each plan saw, depend on the iteration order.
func TestDifferentialVsFuncsim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var identity [256]uint16
	for b := range identity {
		identity[b] = uint16(b)
	}
	for trial := 0; trial < 60; trial++ {
		nfa := randomByteNFA(rng)
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			idp, err := NewPlan(ua, identity, 256)
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range []struct {
				name string
				plan *Plan
			}{{"certified", certifiedPlan(t, nfa, ua)}, {"identity", idp}} {
				r := NewRunner(pl.plan, DefaultConfig())
				for run := 0; run < 2; run++ {
					input := randomInput(rng, rng.Intn(40))
					want, wantRep, wantRC := runSim(ua, input)
					got, gotRep, gotRC := runDFA(t, r, ua, input)
					if !eventsEqual(got, want) {
						t.Fatalf("trial %d rate %d %s run %d: events diverge\n got %v\nwant %v",
							trial, rate, pl.name, run, got, want)
					}
					if gotRep != wantRep || gotRC != wantRC {
						t.Fatalf("trial %d rate %d %s: reports %d/%d want %d/%d",
							trial, rate, pl.name, gotRep, gotRC, wantRep, wantRC)
					}
				}
			}
		}
	}
}

// TestSharedCellReportOrder is the trial that made TestDifferentialVsFuncsim
// fail one run in twelve when it compared events in emission order. At
// cycle 17 the certified-class DFA takes a cell that another byte tuple of
// the same class tuple built: the set it leads to reports (offset 3, origin
// 6) from a lower state ID than (offset 1, origin 6), the oracle's raw set
// the other way round. Same events, other order — which is all Step
// promises, and what canonical compares.
func TestSharedCellReportOrder(t *testing.T) {
	var all bitvec.V256
	for b := 0; b < 256; b++ {
		all.Set(b)
	}
	set := func(bs string) (m bitvec.V256) {
		for _, b := range []byte(bs) {
			m.Set(int(b))
		}
		return m
	}
	nfa := automata.NewAutomaton()
	for _, st := range []struct {
		match bitvec.V256
		start automata.StartKind
		code  int32
		succ  []automata.StateID
	}{
		{all, automata.StartAllInput, 0, []automata.StateID{3}},
		{all, automata.StartAllInput, 2, []automata.StateID{2, 5}},
		{all, automata.StartAllInput, 3, []automata.StateID{3}},
		{set("d"), automata.StartNone, 4, []automata.StateID{2}},
		{set("\xff"), automata.StartNone, 0, nil},
		{all, automata.StartNone, 6, []automata.StateID{2, 6}},
		{set(".Bc"), automata.StartAllInput, 7, nil},
	} {
		id := nfa.AddState(automata.State{Match: st.match, Start: st.start, Report: st.code != 0, ReportCode: st.code})
		for _, to := range st.succ {
			nfa.AddEdge(id, to)
		}
	}
	nfa.Normalize()
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("bBbycBxdb.\x00\x00dBydydxAa\xff\xffcAbb\x00z\xffz.\xffyBczaA")
	want, wantRep, wantRC := runSim(ua, input)
	got, gotRep, gotRC := runDFA(t, NewRunner(certifiedPlan(t, nfa, ua), DefaultConfig()), ua, input)
	if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
		t.Fatalf("events diverge\n got %v\nwant %v", got, want)
	}
}

// TestClearOnFull forces a tiny cache so that constructions keep clearing
// it and transitions keep re-missing, and checks the output against the
// reference. After every cycle the cache must hold at most max states with
// both arenas sized by them, the shared second-level row 0 must still be all
// zeros (a cell written there would be a wrong transition, not a miss), the
// dropped and live states must add up to the constructions, and rate 2 (one
// byte per cycle) must not have grown a second level.
func TestClearOnFull(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, rate := range []int{2, 4} {
		for _, maxStates := range []int{2, 3} {
			var evictions int64
			for trial := 0; trial < 20; trial++ {
				nfa := randomByteNFA(rng)
				ua, err := transform.ToRate(nfa, rate)
				if err != nil {
					t.Fatal(err)
				}
				r := NewRunner(certifiedPlan(t, nfa, ua), Config{MaxStates: maxStates, BlowupRatio: 1e9})
				classes := r.p.classes
				input := randomInput(rng, 600)
				want, wantRep, wantRC := runSim(ua, input)
				got, gotRep, gotRC := runDFAEach(r, ua, input, func() {
					st := r.Stats()
					switch {
					case len(r.states) > r.max+1, len(r.first) != len(r.states)*(classes+1),
						len(r.cells) > (1+r.max*classes)*classes, st.States-st.Evictions != int64(len(r.states)-1):
						t.Fatalf("rate %d max %d trial %d cycle %d: %d states, %d first-level and %d second-level cells, stats %+v",
							rate, r.max, trial, r.Cycle(), len(r.states), len(r.first), len(r.cells), st)
					case slices.ContainsFunc(r.cells[:classes], func(c uint32) bool { return c != 0 }):
						t.Fatalf("rate %d max %d trial %d cycle %d: the shared all-zero row was written", rate, r.max, trial, r.Cycle())
					case rate == 2 && len(r.cells) != classes:
						t.Fatalf("rate 2 max %d trial %d cycle %d: one-byte cycles built a second level (%d cells)", r.max, trial, r.Cycle(), len(r.cells))
					}
				})
				if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
					t.Fatalf("rate %d max %d trial %d: output diverges across cache clears", rate, maxStates, trial)
				}
				if st := r.Stats(); r.FellBack() || st.States > int64(r.max) && st.Evictions == 0 {
					t.Fatalf("rate %d max %d trial %d: %d states constructed without a clear, fell back %v, stats %+v",
						rate, maxStates, trial, st.States, r.FellBack(), st)
				}
				evictions += r.Stats().Evictions
			}
			if evictions == 0 {
				t.Fatalf("rate %d max %d: no trial cleared the cache; tighten the config", rate, maxStates)
			}
		}
	}
}

// TestLRUEviction forces a 2-state cache with the give-up rule armed at ratio
// 10, so that constructions keep evicting (clearing the whole cache) and
// transitions keep re-missing, and checks the output still matches the
// reference.
func TestLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nfa := randomByteNFA(rng)
		ua, err := transform.ToRate(nfa, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(certifiedPlan(t, nfa, ua), Config{MaxStates: 2, BlowupRatio: 10})
		input := randomInput(rng, 300)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, ua, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("trial %d: output diverges under eviction pressure", trial)
		}
		if r.Stats().Evictions == 0 && r.Stats().States > 2 {
			t.Fatalf("trial %d: expected evictions with MaxStates=2, stats %+v", trial, r.Stats())
		}
	}
}

// TestRowRecycling drives second-level rows through clears: a clear cuts the
// row arena back to the shared row 0, keeping its capacity, and the next
// misses take the old rows back. A row taken back must read as empty — a
// stale cell from before the clear would be a wrong transition, not a miss —
// so after every cycle every second-level cell must be 0 or the premultiplied
// ID of a cached state, the output must match the reference, and some trial
// must take a row back.
func TestRowRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	reused := 0
	for trial := 0; trial < 20; trial++ {
		nfa := randomByteNFA(rng)
		ua, err := transform.ToRate(nfa, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(certifiedPlan(t, nfa, ua), Config{MaxStates: 3, BlowupRatio: 1e9})
		stride, prev, peak := uint32(r.p.classes+1), 0, 0
		input := randomInput(rng, 600)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFAEach(r, ua, input, func() {
			if len(r.cells) > prev && len(r.cells) <= peak {
				reused++ // grew back into rows the arena held before a clear
			}
			prev, peak = len(r.cells), max(peak, len(r.cells))
			for i, c := range r.cells {
				if c%stride != 0 || int(c/stride) >= len(r.states) {
					t.Fatalf("trial %d cycle %d: second-level cell %d holds %d, not a cached state's ID (%d states)",
						trial, r.Cycle(), i, c, len(r.states))
				}
			}
		})
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("trial %d: output diverges across row recycling", trial)
		}
	}
	if reused == 0 {
		t.Fatal("no trial took a row back after a clear; tighten the config")
	}
}

// TestHusksBoundedWithinRun: one long run on a cache that clears steadily
// but never thrashes past BlowupRatio must not grow without bound — clears
// inside the run, not only Reset, keep it to the bound Runner documents, both
// arenas follow from it, and no arena grows past the capacity it had at the
// first clear. (A husk was an evicted state left in place; clearing leaves
// none.)
func TestHusksBoundedWithinRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nfa := randomByteNFAOf(rng, 12)
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(certifiedPlan(t, nfa, ua), Config{MaxStates: 4, BlowupRatio: 1e9})
	classes, capStates, capFirst := r.p.classes, 0, 0
	input := randomInput(rng, 2<<20) // 1M cycles
	want, wantRep, wantRC := runSim(ua, input)
	got, gotRep, gotRC := runDFAEach(r, ua, input, func() {
		if len(r.states) > r.max+1 || len(r.first) != len(r.states)*(classes+1) || len(r.cells) > (1+r.max*classes)*classes {
			t.Fatalf("cycle %d: %d states, %d first-level and %d second-level cells with max %d states",
				r.Cycle(), len(r.states), len(r.first), len(r.cells), r.max)
		}
		if r.Stats().Evictions > 0 && capStates == 0 {
			capStates, capFirst = cap(r.states), cap(r.first)
		}
		if capStates != 0 && (cap(r.states) != capStates || cap(r.first) != capFirst) {
			t.Fatalf("cycle %d: arenas regrew after the first clear: states cap %d -> %d, first-level cap %d -> %d",
				r.Cycle(), capStates, cap(r.states), capFirst, cap(r.first))
		}
	})
	if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
		t.Fatal("output diverges across in-run cache clears")
	}
	if st := r.Stats(); r.FellBack() || st.Evictions < 100*int64(r.max) {
		t.Fatalf("the run did not clear its cache steadily: stats %+v", st)
	}
}

// TestBlowupFallback pins the fallback path: a thrashing cache must abandon
// determinization mid-run and finish on direct NFA stepping with identical
// output.
func TestBlowupFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fell := false
	for trial := 0; trial < 40 && !fell; trial++ {
		nfa := randomByteNFA(rng)
		ua, err := transform.ToRate(nfa, 4)
		if err != nil {
			t.Fatal(err)
		}
		plan := certifiedPlan(t, nfa, ua)
		r := NewRunner(plan, Config{MaxStates: 2, BlowupRatio: 0.01})
		input := randomInput(rng, 400)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, ua, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("trial %d: output diverges across fallback", trial)
		}
		if r.Stats().Fallbacks > 0 {
			if !r.FellBack() {
				t.Fatal("Fallbacks counted but FellBack false before Reset")
			}
			fell = true
		}
	}
	if !fell {
		t.Fatal("no trial exercised the blowup fallback; tighten the config")
	}
}

// TestCacheSurvivesReset checks the warm-cache contract: a second identical
// run is served almost entirely from cache.
func TestCacheSurvivesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nfa := randomByteNFA(rng)
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := certifiedPlan(t, nfa, ua)
	r := NewRunner(plan, DefaultConfig())
	input := randomInput(rng, 200)
	runDFA(t, r, ua, input)
	misses := r.Stats().Misses
	runDFA(t, r, ua, input)
	if r.Stats().Misses != misses {
		t.Fatalf("second identical run missed the cache: %d -> %d misses", misses, r.Stats().Misses)
	}
	if r.Stats().Hits == 0 {
		t.Fatal("second run recorded no hits")
	}
}

func TestNewPlanRejects(t *testing.T) {
	nfa := randomByteNFA(rand.New(rand.NewSource(19)))
	ua, err := transform.ToRate(nfa, 1)
	if err != nil {
		t.Fatal(err)
	}
	var identity [256]uint16
	if _, err := NewPlan(ua, identity, 1); err == nil {
		t.Fatal("rate-1 plan must be rejected")
	}
	ua4, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := identity
	bad[7] = 9
	if _, err := NewPlan(ua4, bad, 2); err == nil {
		t.Fatal("out-of-range class must be rejected")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nfa := randomByteNFA(rng)
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := certifiedPlan(t, nfa, ua)
	r := NewRunner(plan, DefaultConfig())
	for _, n := range []int{0, 1, 2, 3} {
		input := randomInput(rng, n)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, ua, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("len %d: tiny-input divergence", n)
		}
	}
}

// spmFallback returns a runner over SPM at rate 4 that has thrashed its
// cache and fallen back to direct NFA stepping — the benchmark's dfa_thrash
// regime — and the input that drove it there.
func spmFallback(tb testing.TB) (r *Runner, input []byte, latches []uint64) {
	tb.Helper()
	w, err := workload.Get("SPM", workload.DefaultScale, 8<<10)
	if err != nil {
		tb.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, 4)
	if err != nil {
		tb.Fatal(err)
	}
	r = NewRunner(certifiedPlan(tb, w.Automaton, ua), DefaultConfig())
	step := fallbackStepper(r, w.Input)
	for range len(w.Input) / r.Plan().StepBytes() {
		step()
	}
	if !r.FellBack() {
		tb.Fatalf("SPM did not thrash the cache in %d bytes: %+v", len(w.Input), r.Stats())
	}
	latches = make([]uint64, r.p.nfa.Words())
	for i := range ua.States {
		if slices.Contains(ua.States[i].Succ, automata.StateID(i)) {
			latches[i>>6] |= 1 << (i & 63)
		}
	}
	return r, w.Input, latches
}

// fallbackStepper returns a func that steps r through input one cycle per
// call, wrapping at the end; it never Resets (which would leave fallback).
func fallbackStepper(r *Runner, input []byte) func() {
	sb, off := r.Plan().StepBytes(), 0
	return func() {
		r.Step(input[off:off+sb], 0)
		if off += sb; off == len(input) {
			off = 0
		}
	}
}

// TestFallbackStepZeroAllocs pins the miss path's steady state: a cycle
// stepped on the NFA tables allocates nothing.
func TestFallbackStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r, input, _ := spmFallback(t)
	if got := testing.AllocsPerRun(2000, fallbackStepper(r, input)); got != 0 {
		t.Errorf("%.2f allocs per fallback Step, want 0", got)
	}
}

// BenchmarkDFAMiss times a cycle of the benchmark's dfa_thrash regime: SPM
// on a thrashed runner, Reset every 1024 cycles (one 2 KiB scan), so each
// run takes cycle 0, a few hits and misses, the fallback, and then the NFA
// step every cycle while the active set grows to its mean of 709 of 3702 states.
// The two regimes of that step are timed apart: /unsaturated is the cycles
// after Reset until every latch is on (about a third of a scan), when the
// runner's latch memo grows and rebuilds; /saturated is the rest, when the
// union is constant and no covered state is walked.
func BenchmarkDFAMiss(b *testing.B) {
	for _, regime := range []struct {
		name      string
		saturated bool
	}{{"unsaturated", false}, {"saturated", true}} {
		b.Run(regime.name, func(b *testing.B) {
			r, input, latches := spmFallback(b)
			step := fallbackStepper(r, input)
			b.ReportAllocs()
			b.SetBytes(int64(r.Plan().StepBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; {
				if !regime.saturated {
					if i == 0 || latchesOn(r, latches) {
						r.Reset()
					}
					step()
					i++
					continue
				}
				b.StopTimer()
				r.Reset()
				for step(); !latchesOn(r, latches); step() {
				}
				b.StartTimer()
				for ; r.Cycle() < 1024 && i < b.N; i++ {
					step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}

// latchesOn reports whether every latch (self-looping state) is on in the
// set r sits in: the source set of its next stepped cycle.
func latchesOn(r *Runner, latches []uint64) bool {
	set := r.active
	if r.cur != 0 {
		set = r.states[r.cur].set
	}
	for w, l := range latches {
		if set[w]&l != l {
			return false
		}
	}
	return true
}

// hammingWarm returns a runner over Hamming at rate 4 and a 64 KiB input it
// has already run once, so every cycle but the first of a later run is a
// cached transition: the benchmark's dfa_sparse regime. run steps the input
// whole cycles at a time from Reset with Step per cycle or, with loop, with
// Run and Step on the cycles it stops before.
func hammingWarm(tb testing.TB) (r *Runner, input []byte, run func(loop bool)) {
	tb.Helper()
	w, err := workload.Get("Hamming", workload.DefaultScale, 64<<10)
	if err != nil {
		tb.Fatal(err)
	}
	ua, err := transform.ToRate(w.Automaton, 4)
	if err != nil {
		tb.Fatal(err)
	}
	r = NewRunner(certifiedPlan(tb, w.Automaton, ua), DefaultConfig())
	sb := r.Plan().StepBytes()
	run = func(loop bool) {
		r.Reset()
		for p := w.Input[:len(w.Input)/sb*sb]; len(p) > 0; {
			if loop {
				n, _ := r.Run(p)
				if p = p[n*sb:]; len(p) == 0 {
					break
				}
			}
			r.Step(p[:sb], 0)
			p = p[sb:]
		}
	}
	run(false)
	return r, w.Input, run
}

// TestRunZeroAllocs pins the hit path's steady state: a warm Hamming run
// through Run allocates nothing.
func TestRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r, _, run := hammingWarm(t)
	misses := r.Stats().Misses
	if got := testing.AllocsPerRun(20, func() { run(true) }); got != 0 {
		t.Errorf("%.2f allocs per warm run, want 0", got)
	}
	if got := r.Stats().Misses; got != misses {
		t.Fatalf("warm runs missed the cache: %d -> %d misses", misses, got)
	}
}

// BenchmarkDFAHit times a cycle of the benchmark's dfa_sparse regime: Hamming
// over 64 KiB on a warm runner. /run is the hit path — Run's loop over
// premultiplied IDs, exiting on reports; /step is the same cycles through
// Step one at a time, the slow path's cost for a hit.
func BenchmarkDFAHit(b *testing.B) {
	for _, mode := range []struct {
		name string
		loop bool
	}{{"step", false}, {"run", true}} {
		b.Run(mode.name, func(b *testing.B) {
			r, input, run := hammingWarm(b)
			misses := r.Stats().Misses
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(mode.loop)
			}
			b.StopTimer()
			if got := r.Stats().Misses; got != misses {
				b.Fatalf("warm runs missed the cache: %d -> %d misses", misses, got)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(input)/r.Plan().StepBytes())), "ns/cycle")
		})
	}
}

// TestDFAMidStreamStart holds ResetMidStream to its contract in lockstep: a run
// started at byte k reports, cycle for cycle, what the plan steps from an
// all-zero source set — the unanchored starts join, the start-of-data
// states do not — on a warm runner and again on the same one. The identity
// partition makes every cached state the raw set, so the runner's report
// rows must equal the plan's exactly.
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
				src := make([]uint64, p.nfa.Words())
				dst := make([]uint64, p.nfa.Words())
				lc := p.nfa.NewLatches()
				var want []automata.StateID
				for c := 0; k+c*p.stepBytes < len(input); c++ {
					data := input[k+c*p.stepBytes:]
					pad := max(0, p.stepBytes-len(data))
					data = data[:p.stepBytes-pad]
					want = p.step(dst, src, data, pad, &lc, want[:0])
					if c == 0 {
						for _, s := range p.nfa.AppendStates(nil, dst) {
							if ua.States[s].Start == automata.StartOfData {
								t.Fatalf("trial %d rate %d from byte %d: start-of-data state %d came on", trial, rate, k, s)
							}
						}
					}
					if got := r.Step(data, pad); !slices.Equal(got, want) {
						t.Fatalf("trial %d rate %d from byte %d, cycle %d: runner reports %v, plan %v", trial, rate, k, c, got, want)
					}
					src, dst = dst, src
				}
			}
		}
	}
}
