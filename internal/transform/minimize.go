package transform

import (
	"math/bits"
	"slices"

	"sunder/internal/automata"
)

// Minimize shrinks a unit automaton by alternating sound merge passes
// until a fixed point, then pruning unreachable states. It returns the
// number of states removed.
//
// Suffix pass: states with identical behaviour signatures — equal match
// vectors, start kinds, report lists and successor sets — are
// indistinguishable going forward and merge. Merging deduplicates their
// predecessors' successor lists, which can expose further merges.
//
// Prefix (co-activation) pass: states with identical match vectors, start
// kinds and predecessor sets receive the same enable signal every cycle and
// therefore are always active together; they merge into one state carrying
// the union of their successors and reports. This is the sharing FlexAmata
// exploits in Figure 3, where the first six bits of symbols A and B merge.
//
// Union pass: see unionMergePass.
//
// Merging two predecessor-less start states can join two previously
// independent patterns into one connected component. Sunder's interconnect
// hosts a component within one four-PU cluster (1024 states), so such
// merges are refused when they would grow a component past that capacity —
// a capacity-aware compilation heuristic that trades a little sharing for
// mappability.
func Minimize(a *automata.UnitAutomaton) int {
	total := a.PruneUnreachable()
	a.Normalize()
	m := &minimizer{a: a}
	for {
		merged := m.mergeBy(suffixFields, nil) + m.mergeBy(prefixFields, m.joinable) + m.unionMergePass()
		if merged == 0 {
			break
		}
		total += merged
	}
	return total
}

// componentCap mirrors mapping.StatesPerCluster: the largest connected
// component the interconnect can host.
const componentCap = 1024

// minimizer holds what the merge passes share within one Minimize. Every
// pass reads and leaves a normalized automaton, and the predecessor lists
// are rebuilt only after a pass that merged.
//
// Merge keys are hashed from a state's fields directly into chains of
// states (head/tail per chain, next per state, in insertion order). States
// of different keys can share a chain; a hit is confirmed field by field
// (same), so they never merge.
type minimizer struct {
	a *automata.UnitAutomaton
	// State i's predecessors, ascending, are pred[predOff[i]:predOff[i+1]].
	predOff []int32
	pred    []automata.StateID
	predsOK bool
	// Chain h>>shift runs head[c], next[head[c]], ... tail[c]; -1 ends it.
	shift            uint
	head, tail, next []automata.StateID
	// repOf[i] is the state i merges into: itself, or an earlier state.
	repOf []automata.StateID
	comps components // the prefix pass's, built on first use
	// The union pass's candidates: states whose group (every key field
	// but the match vector), named by its first state, has two or more.
	cand, group []automata.StateID
}

// Merge keys are built from these fields of a state, plus its start kind.
type keyFields uint8

const (
	keyMatch keyFields = 1 << iota
	keyReports
	keySucc
	keyPreds

	suffixFields = keyMatch | keyReports | keySucc
	prefixFields = keyMatch | keyPreds
	groupFields  = keyReports | keySucc | keyPreds
)

// mix folds v into h (the rotate-xor-multiply step of FxHash).
func mix(h, v uint64) uint64 { return (bits.RotateLeft64(h, 5) ^ v) * 0x517cc1b727220a95 }

// packMatch packs a match vector into one word, position p in bits 16p..16p+15.
func packMatch(s *automata.UnitState) uint64 {
	var w uint64
	for p, m := range s.Match {
		w |= uint64(m) << (16 * p)
	}
	return w
}

// hash hashes state i's start kind and the fields f selects.
func (m *minimizer) hash(i automata.StateID, f keyFields) uint64 {
	s := &m.a.States[i]
	h := mix(0, uint64(s.Start))
	if f&keyMatch != 0 {
		h = mix(h, packMatch(s))
	}
	if f&keyReports != 0 {
		for _, r := range s.Reports {
			h = mix(mix(h, uint64(r.Offset)), uint64(uint32(r.Code))<<32|uint64(uint32(r.Origin)))
		}
	}
	if f&keySucc != 0 {
		h = mix(h, uint64(len(s.Succ)))
		for _, t := range s.Succ {
			h = mix(h, uint64(t))
		}
	}
	if f&keyPreds != 0 {
		for _, t := range m.preds(i) {
			h = mix(h, uint64(t))
		}
	}
	return h
}

// same reports whether states i and j agree on their start kinds and the
// fields f selects.
func (m *minimizer) same(i, j automata.StateID, f keyFields) bool {
	x, y := &m.a.States[i], &m.a.States[j]
	return x.Start == y.Start &&
		(f&keyMatch == 0 || x.Match == y.Match) &&
		(f&keyReports == 0 || slices.Equal(x.Reports, y.Reports)) &&
		(f&keySucc == 0 || slices.Equal(x.Succ, y.Succ)) &&
		(f&keyPreds == 0 || slices.Equal(m.preds(i), m.preds(j)))
}

// begin starts a pass over n states: each its own representative, every
// chain empty.
func (m *minimizer) begin() {
	n := len(m.a.States)
	b := bits.Len(uint(n)) + 1 // at least 2n chains
	m.shift = uint(64 - b)
	m.head = slices.Grow(m.head[:0], 1<<b)[:1<<b]
	m.tail = slices.Grow(m.tail[:0], 1<<b)[:1<<b]
	m.next = slices.Grow(m.next[:0], n)[:n]
	m.repOf = slices.Grow(m.repOf[:0], n)[:n]
	for c := range m.head {
		m.head[c] = -1
	}
	for i := range m.repOf {
		m.repOf[i] = automata.StateID(i)
	}
	m.comps = nil
}

// intern returns the earliest interned state whose f-key equals i's and
// that ok (if not nil) accepts, or interns i and returns it.
func (m *minimizer) intern(i automata.StateID, f keyFields, ok func(rep, i automata.StateID) bool) automata.StateID {
	h := m.hash(i, f)
	c := h >> m.shift
	for j := m.head[c]; j >= 0; j = m.next[j] {
		if m.same(j, i, f) && (ok == nil || ok(j, i)) {
			return j
		}
	}
	if m.next[i] = -1; m.head[c] < 0 {
		m.head[c] = i
	} else {
		m.next[m.tail[c]] = i
	}
	m.tail[c] = i
	return i
}

// mergeBy performs one round of merging on key f, each state into the
// earliest representative with its key that ok accepts, and returns the
// number of states removed.
func (m *minimizer) mergeBy(f keyFields, ok func(rep, i automata.StateID) bool) int {
	m.begin()
	merged := 0
	for i := range m.a.States {
		if rep := m.intern(automata.StateID(i), f, ok); rep != automata.StateID(i) {
			m.repOf[i] = rep
			merged++
		}
	}
	return m.rebuild(merged)
}

// joinable is the prefix pass's component cap: it reports whether merging
// i into rep keeps every component within componentCap, and if so joins
// their components. States with predecessors share a component with them
// already; only predecessor-less merges can join two components.
func (m *minimizer) joinable(rep, i automata.StateID) bool {
	if len(m.preds(i)) > 0 {
		return true
	}
	if m.comps == nil {
		m.comps = newComponents(m.a)
	}
	r, s := m.comps.find(rep), m.comps.find(i)
	if r != s && -(m.comps[r]+m.comps[s]) > componentCap {
		return false
	}
	m.comps.union(r, s)
	return true
}

// preds returns state i's predecessors, rebuilding every list if a merge
// made them stale.
func (m *minimizer) preds(i automata.StateID) []automata.StateID {
	if !m.predsOK {
		a := m.a
		n := len(a.States)
		m.predOff = slices.Grow(m.predOff[:0], n+1)[:n+1]
		clear(m.predOff)
		for j := range a.States {
			for _, t := range a.States[j].Succ {
				m.predOff[t]++
			}
		}
		for j := 1; j <= n; j++ {
			m.predOff[j] += m.predOff[j-1]
		}
		// predOff[t] is the end of t's list. Filling from the last
		// predecessor down leaves it at the start, the list ascending.
		m.pred = slices.Grow(m.pred[:0], int(m.predOff[n]))[:m.predOff[n]]
		for j := n - 1; j >= 0; j-- {
			for _, t := range a.States[j].Succ {
				m.predOff[t]--
				m.pred[m.predOff[t]] = automata.StateID(j)
			}
		}
		m.predsOK = true
	}
	return m.pred[m.predOff[i]:m.predOff[i+1]]
}

// rebuild replaces the automaton's states by one per representative, in
// index order. Each carries the union of its members' reports and
// successors, remapped and normalized. It returns merged, and a merge
// makes the predecessor lists stale.
func (m *minimizer) rebuild(merged int) int {
	if merged == 0 {
		return 0
	}
	a := m.a
	newID := make([]automata.StateID, len(a.States))
	off := make([]int, len(a.States)-merged+1)
	k := 0
	for i, rep := range m.repOf {
		if newID[i] = newID[rep]; rep == automata.StateID(i) {
			newID[i] = automata.StateID(k)
			k++
		}
		off[newID[i]+1] += len(a.States[i].Succ)
	}
	for j := 1; j <= k; j++ {
		off[j] += off[j-1]
	}
	arena := make([]automata.StateID, off[k])
	out := make([]automata.UnitState, k)
	for i := range a.States {
		s, id := &a.States[i], newID[i]
		o := &out[id]
		if m.repOf[i] == automata.StateID(i) {
			*o = automata.UnitState{Match: s.Match, Start: s.Start, Reports: s.Reports,
				Succ: arena[off[id]:off[id]:off[id+1]]}
		} else {
			o.Reports = append(slices.Clip(o.Reports), s.Reports...)
		}
		for _, t := range s.Succ {
			o.Succ = append(o.Succ, newID[t])
		}
	}
	for j := range out {
		out[j].Normalize()
	}
	a.States = out
	m.predsOK = false
	return merged
}

// components is a union-find over states: a root holds minus its
// component's size, any other state its parent.
type components []int32

func newComponents(a *automata.UnitAutomaton) components {
	c := make(components, len(a.States))
	for i := range c {
		c[i] = -1
	}
	for i := range a.States {
		for _, t := range a.States[i].Succ {
			c.union(c.find(automata.StateID(i)), c.find(t))
		}
	}
	return c
}

func (c components) find(x automata.StateID) int32 {
	r := int32(x)
	for c[r] >= 0 {
		r = c[r]
	}
	return r
}

// union joins the components of roots r and s, the smaller under the
// larger, so every path stays logarithmic.
func (c components) union(r, s int32) {
	if r == s {
		return
	}
	if c[r] > c[s] {
		r, s = s, r
	}
	c[r] += c[s]
	c[s] = r
}
