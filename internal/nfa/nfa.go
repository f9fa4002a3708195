// Package nfa is the word-level NFA step: one cycle of a transformed unit
// automaton on flat []uint64 state sets, shared by the device core
// (core.Machine steps every cycle on it) and the lazy DFA (dfa.Runner steps
// its cycle 0, misses and fallback on it). funcsim's bit-by-bit simulator is
// the oracle both are held to.
//
// A Plan numbers the states by rank: bit r%64 of word r/64 is the state
// Order()[r]. The device core ranks them in placement order (PU-major,
// column-minor), so ascending bits are the device's order of reporting and
// active states; the lazy DFA's own plans use the identity order.
//
// Input arrives as one plane index per position (Input). Where a cycle's
// units pair into bytes — rates 2 and 4, 8-bit and 16-bit-wide symbols — a
// position is a byte with 256 pre-ANDed byte planes and a pad plane; at
// rate 1 it is a nibble with 16 nibble planes and a pad plane. Unanchored
// starts are injected by the cycle's phase: on cycles whose first unit
// begins a symbol, (cycle·Rate) mod SymbolUnits == 0 (DESIGN.md §4.16).
package nfa

import (
	"math/bits"
	"slices"

	"sunder/internal/automata"
)

// Input selects a cycle's plane at each position: a byte value at byte
// positions, a nibble value at rate 1, or Pad. Only the first Positions()
// entries are read.
type Input [2]uint16

// Pad selects a position's pad plane: the states that do not care what the
// position holds, the only ones a padded input position leaves on.
const Pad = 0xffff

// Plan holds the immutable stepping tables of one unit automaton. It is
// read-only after NewPlan and safe to share across machines, runners and
// goroutines.
type Plan struct {
	rate, symbolUnits int
	// phase masks the cycle number: a cycle injects the unanchored starts
	// when cycle&phase == 0, every SymbolUnits/Rate-th cycle.
	phase int64
	// positions is the input positions per cycle (Rate/2 bytes, or one
	// nibble at rate 1) and per the planes per position, the last of them
	// the pad plane.
	positions, per int
	words          int
	order          []automata.StateID

	// planes holds per positions × per planes of `words` words (see plane):
	// byte plane b is the states whose nibble positions 2j and 2j+1 accept
	// b's high and low nibble — the two nibble tables pre-ANDed — nibble
	// plane v the states accepting v, and the pad plane the states with
	// every unit position of the input position don't-care.
	planes []uint64

	// startAll is injected on phase-aligned cycles; startFirst is startAll
	// plus the start-of-data states, injected on a stream's cycle 0.
	startAll, startFirst, reportMask, none []uint64

	// succ[succOff[i]:succOff[i+1]] is rank i's successor list, grouped
	// into one (destination word, bits) entry per word it reaches.
	succOff []int32
	succ    []succEntry
	// latch[w] is the self-looping states of source word w, and
	// latchSucc[latchOff[w]:latchOff[w+1]] the OR of all their successor
	// lists: the row Latches ORs at once when a word's latches all come on
	// together. Self-loops are chosen because `.*`-style gap states, once
	// on, stay on, so their successors are worth remembering.
	latch     []uint64
	latchOff  []int32
	latchSucc []succEntry
	// covered[inject][w] is the states of word w whose successors lie inside
	// all of latchSucc, plus startAll on an injecting cycle (inject = 1) —
	// every latch, and on dense automata most of the rest: with every latch
	// on, that is the latch union plus the cycle's starts, and a source set
	// need not walk them.
	covered [2][]uint64
}

// succEntry ORs mask into word `word` of the enabled set.
type succEntry struct {
	word int32
	mask uint64
}

// NewPlan builds the stepping tables of a, a nibble automaton of 8- or
// 16-bit symbols at rate 1, 2 or 4, with its states ranked in order (order[r] is the state of rank r; it
// must list every state once). A nil order is the identity. The tables are
// built in locals and frozen in the Plan it returns.
func NewPlan(a *automata.UnitAutomaton, order []automata.StateID) *Plan {
	n := a.NumStates()
	if order == nil {
		order = make([]automata.StateID, n)
		for i := range order {
			order[i] = automata.StateID(i)
		}
	}
	rank := make([]int32, n)
	for r, s := range order {
		rank[s] = int32(r)
	}
	words := (n + 63) / 64
	positions, per := max(a.Rate/2, 1), 257
	if a.Rate == 1 {
		per = 17
	}
	vec := func() []uint64 { return make([]uint64, words) }
	planes := make([]uint64, positions*per*words)
	startAll, startFirst, reportMask, latch := vec(), vec(), vec(), vec()
	succOff, latchOff := make([]int32, n+1), make([]int32, words+1)
	var succ, latchSucc []succEntry
	// add accumulates successor lists by destination word; flush appends
	// the accumulated entries to a CSR and empties the accumulator.
	acc := vec()
	var touched []int32
	add := func(succ []automata.StateID) {
		for _, s := range succ {
			t := rank[s]
			if acc[t>>6] == 0 {
				touched = append(touched, t>>6)
			}
			acc[t>>6] |= 1 << (t & 63)
		}
	}
	flush := func(dst []succEntry) []succEntry {
		for _, w := range touched {
			dst = append(dst, succEntry{w, acc[w]})
			acc[w] = 0
		}
		touched = touched[:0]
		return dst
	}
	all := automata.AllUnits(4)
	for i, s := range order {
		st := &a.States[s]
		w, bit := i>>6, uint64(1)<<(i&63)
		for j := 0; j < positions; j++ {
			// Word w of plane v is col[v*words]; the pad plane is the last.
			col := planes[j*per*words+w:]
			if a.Rate == 1 {
				for vs := uint16(st.Match[0]); vs != 0; vs &= vs - 1 {
					col[bits.TrailingZeros16(vs)*words] |= bit
				}
				if st.Match[0] == all {
					col[(per-1)*words] |= bit
				}
				continue
			}
			hi, lo := st.Match[2*j], st.Match[2*j+1]
			for hs := uint16(hi); hs != 0; hs &= hs - 1 {
				h := bits.TrailingZeros16(hs) << 4
				for ls := uint16(lo); ls != 0; ls &= ls - 1 {
					col[(h|bits.TrailingZeros16(ls))*words] |= bit
				}
			}
			if hi == all && lo == all {
				col[(per-1)*words] |= bit
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			startAll[w] |= bit
			startFirst[w] |= bit
		case automata.StartOfData:
			startFirst[w] |= bit
		}
		if len(st.Reports) > 0 {
			reportMask[w] |= bit
		}
		add(st.Succ)
		succ = flush(succ)
		succOff[i+1] = int32(len(succ))
	}
	for w := 0; w < words; w++ {
		for i := w << 6; i < min(n, (w+1)<<6); i++ {
			if s := a.States[order[i]].Succ; slices.Contains(s, order[i]) {
				latch[w] |= 1 << (i & 63)
				add(s)
			}
		}
		latchSucc = flush(latchSucc)
		latchOff[w+1] = int32(len(latchSucc))
	}
	covered := [2][]uint64{vec(), vec()}
	for inject, base := range [2][]uint64{vec(), slices.Clone(startAll)} {
		orEntries(base, latchSucc)
		outside := func(e succEntry) bool { return e.mask&^base[e.word] != 0 }
		for i := 0; i < n; i++ {
			if !slices.ContainsFunc(succ[succOff[i]:succOff[i+1]], outside) {
				covered[inject][i>>6] |= 1 << (i & 63)
			}
		}
	}
	return &Plan{
		rate: a.Rate, symbolUnits: a.SymbolUnits, phase: int64(max(a.SymbolUnits/a.Rate, 1) - 1), positions: positions, per: per, words: words, order: order,
		planes: planes, startAll: startAll, startFirst: startFirst, reportMask: reportMask, none: vec(),
		succOff: succOff, succ: succ, latch: latch, latchOff: latchOff, latchSucc: latchSucc, covered: covered,
	}
}

// plane returns plane v of input position j; any v past the position's
// last plane (Pad) is its pad plane.
func (p *Plan) plane(j int, v uint16) []uint64 {
	off := (j*p.per + min(int(v), p.per-1)) * p.words
	return p.planes[off : off+p.words : off+p.words]
}

// Rate, SymbolUnits and Positions describe the cycle: units per cycle,
// units per symbol, and Input positions per cycle.
func (p *Plan) Rate() int        { return p.rate }
func (p *Plan) SymbolUnits() int { return p.symbolUnits }
func (p *Plan) Positions() int   { return p.positions }

// Words returns the length of a state set in uint64 words.
func (p *Plan) Words() int { return p.words }

// Order returns the rank → state table. It is shared; do not modify it.
func (p *Plan) Order() []automata.StateID { return p.order }

// Latches is a stepper's memo of its latches' successors, which Step keeps
// from cycle to cycle: on is the source set's active latches, union is
// succ(on), and full says every latch is on (union is then all of
// latchSucc). The union depends on on alone, so it is exact for any source
// set in any order — cycle 0, misses from cached states, mid-stream starts,
// the fallback — and across resets (DESIGN.md §4.16).
type Latches struct {
	on, union []uint64
	full      bool
}

// NewLatches returns an empty memo for p.
func (p *Plan) NewLatches() Latches {
	none := !slices.ContainsFunc(p.latch, func(l uint64) bool { return l != 0 })
	buf := make([]uint64, 2*p.words)
	return Latches{buf[:p.words:p.words], buf[p.words:], none}
}

// sync brings c to on = src ∩ latch. Latches that came on add their
// successors — a word's latchSucc row when all of its latches came on at
// once — and a latch that went off rebuilds c from empty.
func (c *Latches) sync(p *Plan, src []uint64) {
	for w, v := range src {
		if c.on[w]&^v != 0 {
			clear(c.on)
			clear(c.union)
			break
		}
	}
	c.full = true
	for w, v := range src {
		l := v & p.latch[w]
		if add := l &^ c.on[w]; add != 0 && add == p.latch[w] {
			orEntries(c.union, p.latchSucc[p.latchOff[w]:p.latchOff[w+1]])
		} else {
			for ; add != 0; add &= add - 1 {
				p.orSucc(c.union, w<<6|bits.TrailingZeros64(add))
			}
		}
		c.on[w] = l
		c.full = c.full && l == p.latch[w]
	}
}

// Step computes one cycle transition into dst, which must not alias src:
// the cycle's starts plus the successors of src, filtered by in's planes. A
// nil src is the empty set. cycle is the stream's cycle number, whose phase
// decides whether the unanchored starts are injected; first adds the
// start-of-data states and is set only on cycle 0 of a stream that begins
// at the input's first symbol. c, synced to src's latches when they
// changed, supplies the latches' successors, so only src's other states are
// walked — none of the covered ones once every latch is on. Step appends
// the reporting states of dst to reports in rank order and returns them,
// with the number of states in src.
//
// A padded position (Pad) stands for a whole padded byte, or nibble at
// rate 1: padding only ever completes the final cycle of byte input.
func (p *Plan) Step(dst, src []uint64, in Input, cycle int64, first bool, c *Latches, reports []automata.StateID) (int, []automata.StateID) {
	inject := cycle&p.phase == 0
	starts, union := p.none, c.union
	if inject {
		starts = p.startAll
		if first {
			starts = p.startFirst
		}
	}
	if src == nil {
		union = p.none
	}
	// One pass over src counts it, compares its latches with c's and walks
	// the states c does not cover. The walk skips the covered states when
	// every latch was on last cycle; if a latch has gone off since, it is
	// walked again once c is synced.
	full := c.full
	clear(dst)
	n, moved := p.walk(dst, src, c, full, inject)
	if moved {
		c.sync(p, src)
		if full {
			clear(dst)
			p.walk(dst, src, c, c.full, inject)
		}
	}
	// Both positions in one pass; a one-position cycle ANDs its plane twice.
	a, b := p.plane(0, in[0]), p.plane(p.positions-1, in[p.positions-1])
	starts, union, mask := starts[:len(dst)], union[:len(dst)], p.reportMask[:len(dst)]
	for w := range dst {
		d := (dst[w] | union[w] | starts[w]) & a[w] & b[w]
		dst[w] = d
		for d &= mask[w]; d != 0; d &= d - 1 {
			reports = append(reports, p.order[w<<6|bits.TrailingZeros64(d)])
		}
	}
	return n, reports
}

// walk ORs into dst the successors of src's states outside c's union — the
// covered ones when full, else the latches — and returns the number of
// states in src and whether its latches differ from c's.
func (p *Plan) walk(dst, src []uint64, c *Latches, full, inject bool) (n int, moved bool) {
	skip := p.latch
	if full {
		skip = p.covered[0]
		if inject {
			skip = p.covered[1]
		}
	}
	latch, on, skip := p.latch[:len(src)], c.on[:len(src)], skip[:len(src)] // no bounds checks
	var diff uint64
	for w, v := range src {
		n += bits.OnesCount64(v)
		diff |= v&latch[w] ^ on[w]
		for v &^= skip[w]; v != 0; v &= v - 1 {
			p.orSucc(dst, w<<6|bits.TrailingZeros64(v))
		}
	}
	return n, diff != 0
}

// orSucc ORs rank i's successors into dst.
func (p *Plan) orSucc(dst []uint64, i int) { orEntries(dst, p.succ[p.succOff[i]:p.succOff[i+1]]) }

func orEntries(dst []uint64, es []succEntry) {
	for _, e := range es {
		dst[e.word] |= e.mask
	}
}

// AppendStates appends every state of set to dst in rank order.
func (p *Plan) AppendStates(dst []automata.StateID, set []uint64) []automata.StateID {
	for w, v := range set {
		for ; v != 0; v &= v - 1 {
			dst = append(dst, p.order[w<<6|bits.TrailingZeros64(v)])
		}
	}
	return dst
}

// ByteInput is the one place a cycle's Input is built from raw bytes: data
// holds the cycle's bytes up to the input's end, and the last pad positions
// lie past it. At rate 1 a cycle reads one nibble of data[0], the one the
// cycle's phase selects: the high nibble on even cycles, the low on odd
// ones. At rates 2 and 4 the cycle number is not read.
func (p *Plan) ByteInput(data []byte, pad int, cycle int64) Input {
	in := Input{Pad, Pad}
	for j := range p.positions - pad {
		in[j] = uint16(data[j])
	}
	if p.rate == 1 && pad == 0 {
		in[0] = in[0] >> (4 - 4*(cycle&1)) & 0xf
	}
	return in
}
