package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"sunder"
	"sunder/internal/automata"
	"sunder/internal/funcsim"
	"sunder/internal/regex"
	"sunder/internal/server"
	"sunder/internal/workload"
)

// entry is the public entry point a workload drives.
type entry int

const (
	entryScan   entry = iota // Engine.Scan
	entryStream              // Engine.NewStream, 1460-byte Writes, Close
	entryHTTP                // POST /rulesets/{id}/scan over loopback
)

// spec is one workload: a rule set, the compile options, the entry point
// and the payload geometry. README.md records why each one exists; the
// one-line why here is what BENCHMARK.json carries.
type spec struct {
	name string
	why  string
	// rules names an internal/workload generator; empty for http_batch,
	// whose rules come from the seeded generator below.
	rules     string
	backend   string
	prefilter bool
	minimize  bool
	entry     entry
	// matchFree redraws every payload cut the oracle finds a match in, so
	// that the list holds no match whatever the seed: on dfa_sparse one
	// matching payload in sixteen adds an allocation to that op and moved
	// allocs_per_op by 3% from seed to seed.
	matchFree bool
	// minMatchesPerByte is the match density the oracle must find in the
	// payload list, for a workload chosen to be match-dense.
	minMatchesPerByte float64
	// inputBytes is the size of one scanned input, inputsPerOp how many of
	// them one op carries (16 for the HTTP batch, 1 elsewhere).
	inputBytes  int
	inputsPerOp int
}

const (
	// ruleScale is the internal/workload scale every rule set is generated
	// at; payloadsPerList the length of a workload's payload list.
	ruleScale       = 0.02
	payloadsPerList = 16
	// oversize is how much more input is generated than the payload list
	// needs; the seed picks the cut offsets inside it.
	oversize = 4
	// streamChunk is the Write size of stream_chunks: one Ethernet MSS.
	streamChunk = 1460
	httpRules   = 64
	// maxDrawsPerPayload bounds the redraws of a matchFree workload.
	maxDrawsPerPayload = 8
)

// The three workloads that run at about 1 MB/s or less scan small inputs,
// so that an op takes 5-15 ms: on the shared sandboxes an op of 50 ms or
// more never fits between two disturbances, and its fastest repetitions
// moved 10-15% from one set of runs to the next (README.md, "Noise").
var specs = []spec{
	{name: "nfa_dense", rules: "Snort", backend: "nfa", entry: entryScan, minMatchesPerByte: 1, inputBytes: 4 << 10, inputsPerOp: 1,
		why: "Snort forced onto the bitvec NFA core at ~1.7 matches/byte: core stepping, report modelling and match assembly are the whole cost"},
	{name: "dfa_sparse", rules: "Hamming", backend: "auto", entry: entryScan, matchFree: true, inputBytes: 64 << 10, inputsPerOp: 1,
		why: "Hamming on the lazy-DFA hit path with no matches: dfa.Runner.Step plus facade per-cycle overhead; the no-change control for core changes"},
	{name: "dfa_thrash", rules: "SPM", backend: "auto", entry: entryScan, inputBytes: 2 << 10, inputsPerOp: 1,
		why: "SPM drives the same lazy DFA to a 0% hit rate, LRU eviction and NFA fallback: a cache-policy change that helps dfa_sparse and hurts here shows"},
	{name: "prefilter_skip", rules: "ClamAV", backend: "auto", prefilter: true, entry: entryScan, matchFree: true, inputBytes: 64 << 10, inputsPerOp: 1,
		why: "ClamAV prefiltered on literal-free input: the Aho-Corasick scanner is the whole cost and every device cycle is skipped"},
	{name: "prefilter_hit", rules: "EntityResolution", backend: "auto", prefilter: true, entry: entryScan, inputBytes: 8 << 10, inputsPerOp: 1,
		why: "EntityResolution prefiltered on literal-dense input: candidate windows replay on NFA clones, so a prefilter gain bought at the hit path's expense is caught"},
	{name: "stream_chunks", rules: "TCP", backend: "auto", entry: entryStream, inputBytes: 64 << 10, inputsPerOp: 1,
		why: "TCP through NewStream in 1460-byte Writes at ~0.1 matches/byte: the streaming fork (consumeDFA, emit de-dup, hold-back) of the same backends"},
	{name: "http_batch", backend: "auto", minimize: true, entry: entryHTTP, inputBytes: 1 << 10, inputsPerOp: 16,
		why: "64 seeded NIDS-style regexes served over loopback HTTP in JSON batches of 16 x 1 KiB: server, ScanBatch fan-out and per-scan fixed costs dominate"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// options are the compile options the workload's engine is built with.
func (s spec) options() sunder.Options {
	o := sunder.DefaultOptions()
	o.Backend = s.backend
	if s.prefilter {
		o.Prefilter = sunder.PrefilterOn
	}
	o.Minimize = s.minimize
	return o
}

// ref is the oracle's verdict on one input: how many matches, and an
// order-insensitive digest of their (Position, Code) pairs.
type ref struct {
	count  int64
	digest uint64
}

func (r *ref) add(pos int64, code int32) {
	r.count++
	r.digest += mix64(uint64(pos)<<32 ^ uint64(uint32(code)))
}

// mix64 is the splitmix64 finalizer: summing it over matches gives a
// digest that ignores order but not multiplicity.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// payload is the input of one op.
type payload struct {
	inputs [][]byte
	refs   []ref
	// body is the pre-encoded JSON request (http_batch only): encoding it
	// is the client's work, not the system's.
	body  []byte
	bytes int64
	// matches is the reference match count summed over inputs — all a
	// timed op checks.
	matches int64
}

// instance is everything generated from the seed before any clock starts:
// the rules, the payload list and the oracle's references.
type instance struct {
	spec     spec
	nfa      *automata.Automaton
	patterns []sunder.Pattern // http_batch only
	payloads []*payload
}

// newInstance generates the workload's inputs. nPayloads shortens the list
// for the smoke test; the benchmark proper always uses payloadsPerList.
func newInstance(s spec, seed int64, nPayloads int) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	inst := &instance{spec: s}
	var inputs [][][]byte
	if s.entry == entryHTTP {
		var err error
		if inst.patterns, inst.nfa, inputs, err = genHTTP(rng, s, nPayloads); err != nil {
			return nil, err
		}
	} else {
		w, err := workload.Get(s.rules, ruleScale, oversize*payloadsPerList*s.inputBytes)
		if err != nil {
			return nil, err
		}
		inst.nfa = w.Automaton
		// Payload i is cut from the i-th of payloadsPerList equal strata of
		// the oversized input, at a seeded offset inside it: every seed's list
		// samples the whole input evenly, so the lists of different seeds
		// cost nearly the same.
		span := len(w.Input) - s.inputBytes + 1
		for i, draws := 0, 0; i < nPayloads; draws++ {
			if draws == maxDrawsPerPayload*nPayloads {
				return nil, fmt.Errorf("%s: %d of %d cuts hold a match, want a match-free input", s.name, draws-i, draws)
			}
			lo, hi := i*span/payloadsPerList, (i+1)*span/payloadsPerList
			off := lo + rng.Intn(hi-lo)
			in := w.Input[off : off+s.inputBytes]
			if s.matchFree && len(funcsim.RunBytes(inst.nfa, in).Events) > 0 {
				continue
			}
			// Copy, so the oversized input can be collected and does not
			// sit in live_heap_mb.
			inputs = append(inputs, [][]byte{bytes.Clone(in)})
			i++
		}
	}
	for _, in := range inputs {
		p := &payload{inputs: in, refs: make([]ref, len(in))}
		for i, b := range in {
			for _, ev := range funcsim.RunBytes(inst.nfa, b).Events {
				p.refs[i].add(ev.Cycle, ev.Code)
			}
			p.bytes += int64(len(b))
			p.matches += p.refs[i].count
		}
		if s.entry == entryHTTP {
			body, err := json.Marshal(server.EncodeInputs(in))
			if err != nil {
				return nil, err
			}
			p.body = body
		}
		inst.payloads = append(inst.payloads, p)
	}
	return inst, inst.checkRegime()
}

// checkRegime asserts the input-side property each workload was chosen
// for: matchFree lists hold no match (the redraws above saw to it, the sum
// here covers them again), match-dense ones at least minMatchesPerByte.
// Only the oracle's view of the inputs is asserted, never the plan the
// engine resolved: a later re-routing change is measured, not blocked.
func (inst *instance) checkRegime() error {
	var matches, nbytes int64
	for _, p := range inst.payloads {
		matches += p.matches
		nbytes += p.bytes
	}
	if inst.spec.matchFree && matches != 0 {
		return fmt.Errorf("%s: reference has %d matches, want a match-free input", inst.spec.name, matches)
	}
	if perByte := float64(matches) / float64(nbytes); perByte < inst.spec.minMatchesPerByte {
		return fmt.Errorf("%s: %.3f matches/byte, want >= %g", inst.spec.name, perByte, inst.spec.minMatchesPerByte)
	}
	return nil
}

// ---------------------------------------------------------------------------
// http_batch: seeded NIDS-style rules and traffic.

// gapShape is the rule shape with a .* gap in it.
const gapShape = 3

// ruleShape builds rule i's expression from seeded lowercase words, and one
// traffic fragment that the expression matches. The eight shapes cover the
// syntax a signature set leans on: literals, classes, {m,n}, .* gaps,
// alternation and (?i). Word lengths depend only on the shape, so rule sets
// of different seeds have the same structure and differ in their letters.
// foldWord gives the words of the (?i) rules.
func ruleShape(rng *rand.Rand, i int, word, foldWord func(n int) string) (expr, plant string) {
	digits := func(n int) string {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	switch i % 8 {
	case 0:
		a, b := word(5), word(6)
		return "/" + a + "/" + b + `\.php`, "/" + a + "/" + b + ".php"
	case 1:
		a := foldWord(8)
		return "(?i)x-" + a, "X-" + strings.ToUpper(a[:4]) + a[4:]
	case 2:
		a := word(5)
		// The space keeps a digit of the background from lengthening the match.
		return a + "=[0-9]{2,5}", a + "=" + digits(3) + " "
	case gapShape:
		a, b := word(6), word(6)
		return a + ".*" + b, a + " " + digits(4) + " " + b
	case 4:
		a := word(4)
		return a + "[a-f0-9]{8}", a + "c0ffee" + digits(2)
	case 5:
		a, b, c := word(5), word(5), word(4)
		return "(" + a + "|" + b + ")/" + c, b + "/" + c
	case 6:
		a := word(5)
		return "%[0-9a-f][0-9a-f]" + a, "%2f" + a
	default:
		a, b := foldWord(5), foldWord(5)
		return "(?i)" + a + `[ \t]+` + b, strings.ToUpper(a) + " \t" + b
	}
}

// wordDealer returns a source of seeded lowercase words. A word's first
// letter goes round initials, a seeded permutation of the alphabet, counted by
// words over every dealer that shares it: as many words share a first letter
// under every seed. Its other letters are dealt from a deck of the alphabet
// that is reshuffled when it runs out, so that a few dozen words use every
// letter.
func wordDealer(rng *rand.Rand, initials []int, words *int) func(n int) string {
	var deck []int
	return func(n int) string {
		b := make([]byte, n)
		b[0] = byte('a' + initials[*words%len(initials)])
		*words++
		for j := 1; j < n; j++ {
			if len(deck) == 0 {
				deck = rng.Perm(26)
			}
			b[j] = byte('a' + deck[0])
			deck = deck[1:]
		}
		return string(b)
	}
}

// genHTTP generates the rule set, its byte automaton (the oracle's view:
// regex.CompileSet, no minimization) and nPayloads batches of traffic.
// Background bytes are uppercase, digits and separators; every input
// carries three planted fragments. What the seed may not move is the work an
// op does, so the generator fixes what the lazy DFA's size and the match
// count depend on and leaves the seed the letters: the words come from
// wordDealer, the (?i) rules from a dealer of their own (the uppercase
// letters they use are symbol classes of their own, and their deck makes
// that all 26 under every seed); seeded permutations spread the plants
// evenly over the rules; and a fragment of a .* rule is always an input's
// last (behind it the gap stays open, and every fragment that followed would
// be walked in DFA states of its own).
func genHTTP(rng *rand.Rand, s spec, nPayloads int) ([]sunder.Pattern, *automata.Automaton, [][][]byte, error) {
	initials, words := rng.Perm(26), 0
	word, foldWord := wordDealer(rng, initials, &words), wordDealer(rng, initials, &words)
	patterns := make([]sunder.Pattern, httpRules)
	rps := make([]regex.Pattern, httpRules)
	plants := make([]string, httpRules)
	for i := range patterns {
		expr, plant := ruleShape(rng, i, word, foldWord)
		patterns[i] = sunder.Pattern{Expr: expr, Code: int32(1000 + i)}
		rps[i] = regex.Pattern{Expr: expr, Code: patterns[i].Code}
		plants[i] = plant
	}
	nfa, err := regex.CompileSet(rps)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("http_batch rules: %w", err)
	}
	// gaps and rest are the .* rules and the others, each in seeded order.
	// Every rule is planted equally often over a full payload list: three
	// inputs in eight end on a gap rule's fragment.
	var gaps, rest []int
	for _, i := range rng.Perm(httpRules) {
		if i%8 == gapShape {
			gaps = append(gaps, i)
		} else {
			rest = append(rest, i)
		}
	}
	const background = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 :;,\r\n"
	const plantsPerInput = 3
	nextGap, nextRest, inputs := 0, 0, 0
	batches := make([][][]byte, nPayloads)
	for b := range batches {
		batches[b] = make([][]byte, s.inputsPerOp)
		for j := range batches[b] {
			in := make([]byte, s.inputBytes)
			for k := range in {
				in[k] = background[rng.Intn(len(background))]
			}
			for k := 0; k < plantsPerInput; k++ {
				var rule int
				if k == plantsPerInput-1 && inputs%8 < 3 {
					rule = gaps[nextGap%len(gaps)]
					nextGap++
				} else {
					rule = rest[nextRest%len(rest)]
					nextRest++
				}
				pos := s.inputBytes*(2*k+1)/(2*plantsPerInput) + rng.Intn(32)
				copy(in[pos:], plants[rule])
			}
			inputs++
			batches[b][j] = in
		}
	}
	return patterns, nfa, batches, nil
}
