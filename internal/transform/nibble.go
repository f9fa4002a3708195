// Package transform implements the algorithmic transformations of Section 4:
// converting byte-oriented (8-bit) automata to nibble (4-bit) automata, the
// intermediate binary (1-bit) form, and vectorized temporal striding to 2-
// and 4-nibble processing rates. It is the reproduction's equivalent of the
// FlexAmata tool plus Impala's striding pass.
//
// All transformations are semantics-preserving: for any input stream, the
// transformed automaton generates exactly the same multiset of
// (input-position, report-code) events as the original. The package's
// differential tests enforce this against the functional simulator.
package transform

import (
	"slices"

	"sunder/internal/automata"
)

// nibbleTerm is one product term H×L of a state's 16×16 symbol matrix: the
// state accepts byte b iff hi(b) ∈ H and lo(b) ∈ L for some term.
type nibbleTerm struct {
	hi automata.UnitSet
	lo automata.UnitSet
}

// decompose covers a 256-symbol set with product terms by grouping the rows
// of its 16×16 (high-nibble × low-nibble) matrix: all high nibbles with an
// identical low-nibble row merge into a single term. This is the
// FlexAmata-style minimization in which symbol prefixes with identical
// suffix behaviour share states (Figure 3: "the first 6 bits of symbols A
// and B can be merged"). The cover is exact and uses at most 16 terms.
func decompose(match [4]uint64) []nibbleTerm {
	// One term per distinct non-empty row lo (the low nibbles accepted
	// with high nibble h), hi the high nibbles sharing it, kept in lo
	// order; lo is unique per term, so that is (lo, hi) order.
	var terms [16]nibbleTerm
	n := 0
	for h := 0; h < 16; h++ {
		lo := automata.UnitSet(match[h/4] >> (uint(h%4) * 16))
		if lo == 0 {
			continue
		}
		j := 0
		for j < n && terms[j].lo < lo {
			j++
		}
		if j == n || terms[j].lo != lo {
			copy(terms[j+1:n+1], terms[j:n])
			terms[j] = nibbleTerm{lo: lo}
			n++
		}
		terms[j].hi |= 1 << uint(h)
	}
	return slices.Clone(terms[:n])
}

// naiveDecompose covers a symbol set with one product term per accepted
// byte value. It exists only as the ablation baseline for the grouped-row
// cover (BenchmarkAblationCover, via ToNibbleNaive); ToNibble always uses
// decompose.
func naiveDecompose(match [4]uint64) []nibbleTerm {
	var terms []nibbleTerm
	for b := 0; b < 256; b++ {
		if match[b/64]&(1<<(uint(b)%64)) != 0 {
			terms = append(terms, nibbleTerm{
				hi: 1 << uint(b>>4),
				lo: 1 << uint(b&0x0f),
			})
		}
	}
	return terms
}

// ToNibble converts a byte-oriented homogeneous NFA into an equivalent
// 1-nibble (4-bit) automaton. Each original STE becomes, per product term of
// its symbol set, a high-nibble STE feeding a low-nibble STE; the low STE
// inherits the report flag and outgoing edges, the high STE inherits the
// start kind and incoming edges.
func ToNibble(a *automata.Automaton) *automata.UnitAutomaton {
	return toNibble(a, decompose)
}

// ToNibbleNaive is ToNibble with the per-symbol cover; ablation only.
func ToNibbleNaive(a *automata.Automaton) *automata.UnitAutomaton {
	return toNibble(a, naiveDecompose)
}

func toNibble(a *automata.Automaton, cover func([4]uint64) []nibbleTerm) *automata.UnitAutomaton {
	out := automata.NewUnitAutomaton(4, 1, 2)
	// his[s] lists the high-nibble entry states of original state s.
	his := make([][]automata.StateID, len(a.States))
	los := make([][]automata.StateID, len(a.States))
	for i := range a.States {
		s := &a.States[i]
		terms := cover([4]uint64(s.Match))
		for _, t := range terms {
			hi := out.AddState(automata.UnitState{
				Match: [automata.MaxRate]automata.UnitSet{t.hi},
				Start: s.Start,
			})
			lo := automata.UnitState{
				Match: [automata.MaxRate]automata.UnitSet{t.lo},
			}
			if s.Report {
				lo.Reports = []automata.Report{{Offset: 0, Code: s.ReportCode, Origin: int32(i)}}
			}
			loID := out.AddState(lo)
			out.States[hi].Succ = []automata.StateID{loID}
			his[i] = append(his[i], hi)
			los[i] = append(los[i], loID)
		}
	}
	// Wire each low STE to the high entry STEs of every successor.
	for i := range a.States {
		for _, lo := range los[i] {
			for _, succ := range a.States[i].Succ {
				out.States[lo].Succ = append(out.States[lo].Succ, his[succ]...)
			}
		}
	}
	out.Normalize()
	return out
}
