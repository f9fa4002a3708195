package transform

import (
	"fmt"

	"sunder/internal/automata"
)

// ToBinary converts a byte-oriented automaton into the intermediate 1-bit
// (binary) automaton of the Figure 3 pipeline. Each original STE becomes a
// directed acyclic graph of bit-matching states, most-significant bit first,
// in which sibling subtrees with identical behaviour are merged — the
// minimization FlexAmata applies ("the first 6 bits of symbols A and B can
// be merged"). Leaves inherit the report flag; entry states inherit the
// start kind and incoming edges.
//
// The binary form is exponential in neither states nor time — each original
// state expands to at most 2·255 bit states and typically far fewer — but it
// processes one bit per cycle, so it exists for exposition and as a
// stepping stone, exactly as in the paper.
func ToBinary(a *automata.Automaton) *automata.UnitAutomaton {
	out := automata.NewUnitAutomaton(1, 1, 8)
	entries := make([][]automata.StateID, len(a.States))
	leaves := make([][]automata.StateID, len(a.States))
	for i := range a.States {
		b := &bitBuilder{out: out, memo: make(map[bitKey][]automata.StateID)}
		s := &a.States[i]
		var rep []automata.Report
		if s.Report {
			rep = []automata.Report{{Offset: 0, Code: s.ReportCode, Origin: int32(i)}}
		}
		b.leafReports = rep
		entries[i] = b.build(0, bitMask(s.Match), 256)
		leaves[i] = b.leaves
		for _, e := range entries[i] {
			out.States[e].Start = s.Start
		}
	}
	// Wire each leaf to the entry states of the original successors.
	for i := range a.States {
		for _, leaf := range leaves[i] {
			for _, succ := range a.States[i].Succ {
				out.States[leaf].Succ = append(out.States[leaf].Succ, entries[succ]...)
			}
		}
	}
	out.Normalize()
	return out
}

// bitMask is a symbol subset over a power-of-two width ≤ 256, stored in the
// low bits of four words.
type bitMask [4]uint64

func (m bitMask) empty() bool { return m[0]|m[1]|m[2]|m[3] == 0 }

// halves splits a width-w mask into the subsets with most-significant bit 0
// (values < w/2) and 1 (values ≥ w/2), each of width w/2.
func (m bitMask) halves(w int) (lo, hi bitMask) {
	switch w {
	case 256:
		return bitMask{m[0], m[1]}, bitMask{m[2], m[3]}
	case 128:
		return bitMask{m[0]}, bitMask{m[1]}
	default: // w ≤ 64
		mask := uint64(1)<<(uint(w)/2) - 1
		return bitMask{m[0] & mask}, bitMask{(m[0] >> (uint(w) / 2)) & mask}
	}
}

type bitKey struct {
	depth int
	set   bitMask
}

type bitBuilder struct {
	out         *automata.UnitAutomaton
	memo        map[bitKey][]automata.StateID
	leaves      []automata.StateID
	leafReports []automata.Report
}

// build returns the entry states (matching the bit at the given depth) of
// the subtree recognizing set, a subset of width-w suffixes.
func (b *bitBuilder) build(depth int, set bitMask, w int) []automata.StateID {
	if set.empty() {
		panic(fmt.Sprintf("transform: empty bit subset at depth %d", depth))
	}
	k := bitKey{depth: depth, set: set}
	if ids, ok := b.memo[k]; ok {
		return ids
	}
	var ids []automata.StateID
	if w == 2 {
		// Leaf level: the final bit of the byte.
		id := b.out.AddState(automata.UnitState{
			Match:   [automata.MaxRate]automata.UnitSet{automata.UnitSet(set[0] & 0b11)},
			Reports: append([]automata.Report(nil), b.leafReports...),
		})
		b.leaves = append(b.leaves, id)
		ids = []automata.StateID{id}
	} else {
		lo, hi := set.halves(w)
		switch {
		case lo == hi: // identical subtrees: one state matching either bit
			child := b.build(depth+1, lo, w/2)
			id := b.out.AddState(automata.UnitState{
				Match: [automata.MaxRate]automata.UnitSet{0b11},
				Succ:  append([]automata.StateID(nil), child...),
			})
			ids = []automata.StateID{id}
		default:
			if !lo.empty() {
				child := b.build(depth+1, lo, w/2)
				ids = append(ids, b.out.AddState(automata.UnitState{
					Match: [automata.MaxRate]automata.UnitSet{0b01},
					Succ:  append([]automata.StateID(nil), child...),
				}))
			}
			if !hi.empty() {
				child := b.build(depth+1, hi, w/2)
				ids = append(ids, b.out.AddState(automata.UnitState{
					Match: [automata.MaxRate]automata.UnitSet{0b10},
					Succ:  append([]automata.StateID(nil), child...),
				}))
			}
		}
	}
	b.memo[k] = ids
	return ids
}
