package transform

import (
	"cmp"
	"slices"

	"sunder/internal/automata"
)

// unionMergePass implements the "vectorized" compression at the heart of
// Impala-style striding: two states that agree on start kind, predecessor
// set, successor set and reports, and whose match vectors differ in exactly
// one position, are parallel alternatives — activating either has identical
// consequences — so they merge into one state whose match at that position
// is the union. This is what keeps the strided state counts near the
// paper's Table 3 levels: striding creates families of pair states
// (q, q2a), (q, q2b), ... that differ only in the second half of their
// vector and share everything else.
//
// Soundness: equal predecessors and start kind mean both states receive the
// same enable signal every cycle; equal successors and reports mean an
// activation has the same effect. The union therefore accepts exactly the
// union of the two original languages with no cross products.
//
// The pass returns the number of states removed. States are grouped once by
// every key field but the match vector, and only groups of two or more are
// tried at each position; a merge at one position regroups for the next.
func (m *minimizer) unionMergePass() int {
	removed, merged := 0, 1
	for p := 0; p < m.a.Rate; p++ {
		if merged > 0 {
			m.begin()
			m.group = slices.Grow(m.group[:0], len(m.a.States))[:len(m.a.States)]
			size := make([]int32, len(m.a.States))
			for i := range m.a.States {
				m.group[i] = m.intern(automata.StateID(i), groupFields, nil)
				size[m.group[i]]++
			}
			m.cand = m.cand[:0]
			for i, g := range m.group {
				if size[g] > 1 {
					m.cand = append(m.cand, automata.StateID(i))
				}
			}
		}
		merged = m.unionMergeAt(p)
		removed += merged
	}
	return removed
}

// unionMergeAt merges along position p: within a group, states whose match
// vectors agree everywhere but at p fold into the earliest of them.
func (m *minimizer) unionMergeAt(p int) int {
	if len(m.cand) == 0 {
		return 0
	}
	m.begin()
	s := m.a.States
	rest := func(i automata.StateID) uint64 { return packMatch(&s[i]) &^ (0xffff << (16 * p)) }
	slices.SortFunc(m.cand, func(x, y automata.StateID) int {
		return cmp.Or(cmp.Compare(m.group[x], m.group[y]), cmp.Compare(rest(x), rest(y)), cmp.Compare(x, y))
	})
	merged := 0
	for k, i := range m.cand[1:] {
		// The previous candidate's representative heads its run.
		if rep := m.repOf[m.cand[k]]; m.group[i] == m.group[rep] && rest(i) == rest(rep) {
			s[rep].Match[p] |= s[i].Match[p]
			m.repOf[i] = rep
			merged++
		}
	}
	return m.rebuild(merged)
}
