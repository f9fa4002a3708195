package transform

import (
	"fmt"
	"slices"
	"strings"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// Wide-symbol transformation: a 16-bit symbol is exactly four nibbles, so a
// wide automaton transforms into a nibble automaton with SymbolUnits=4 and
// Sunder's 16-bit processing rate consumes one full symbol per cycle —
// the configuration Section 5.1.1 motivates for large-alphabet data-mining
// applications.
//
// Each wide state's (sparse) symbol set becomes a four-level nibble trie,
// most significant nibble first, with two compressions: identical sibling
// subtrees merge into one state whose nibble set is the union of the edges
// (the 16-ary analogue of the binary merging in Figure 3), and nodes are
// interned per (depth, suffix set) so shared suffixes within a state are
// built once.

// WideToNibble converts a 16-bit automaton to an equivalent 1-nibble
// automaton.
func WideToNibble(a *automata.WideAutomaton) *automata.UnitAutomaton {
	out := automata.NewUnitAutomaton(4, 1, 4)
	entries := make([][]automata.StateID, len(a.States))
	leaves := make([][]automata.StateID, len(a.States))
	for i := range a.States {
		b := &wideBuilder{out: out, memo: map[string][]automata.StateID{}}
		s := &a.States[i]
		if s.Report {
			b.leafReports = []automata.Report{{Offset: 0, Code: s.ReportCode, Origin: int32(i)}}
		}
		entries[i] = b.build(0, s.Match)
		leaves[i] = b.leaves
		for _, e := range entries[i] {
			out.States[e].Start = s.Start
		}
	}
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

type wideBuilder struct {
	out         *automata.UnitAutomaton
	memo        map[string][]automata.StateID
	leaves      []automata.StateID
	leafReports []automata.Report
}

// build returns entry states recognizing the given suffixes starting at
// nibble position depth (0 = most significant). Suffix values are the low
// (4-depth)*4 bits of the original symbols.
func (b *wideBuilder) build(depth int, suffixes []uint16) []automata.StateID {
	key := suffixKey(depth, suffixes)
	if ids, ok := b.memo[key]; ok {
		return ids
	}
	var ids []automata.StateID
	if depth == 3 {
		var match automata.UnitSet
		for _, v := range suffixes {
			match |= 1 << (v & 0xf)
		}
		id := b.out.AddState(automata.UnitState{
			Match:   [automata.MaxRate]automata.UnitSet{match},
			Reports: append([]automata.Report(nil), b.leafReports...),
		})
		b.leaves = append(b.leaves, id)
		ids = []automata.StateID{id}
	} else {
		shift := uint((3 - depth) * 4)
		// Partition the suffixes by their nibble at this depth.
		bySub := map[string][]int{} // child-suffix signature -> nibbles
		childSet := map[string][]uint16{}
		for nib := 0; nib < 16; nib++ {
			var sub []uint16
			for _, v := range suffixes {
				if int(v>>shift)&0xf == nib {
					sub = append(sub, v&uint16(1<<shift-1))
				}
			}
			if len(sub) == 0 {
				continue
			}
			sub = dedupSorted(sub)
			k := suffixKey(depth+1, sub)
			bySub[k] = append(bySub[k], nib)
			childSet[k] = sub
		}
		var keys []string
		for k := range bySub {
			keys = append(keys, k)
		}
		slices.Sort(keys) // deterministic output
		for _, k := range keys {
			child := b.build(depth+1, childSet[k])
			var match automata.UnitSet
			for _, nib := range bySub[k] {
				match |= 1 << uint(nib)
			}
			ids = append(ids, b.out.AddState(automata.UnitState{
				Match: [automata.MaxRate]automata.UnitSet{match},
				Succ:  append([]automata.StateID(nil), child...),
			}))
		}
	}
	b.memo[key] = ids
	return ids
}

func dedupSorted(vs []uint16) []uint16 {
	slices.Sort(vs)
	return slices.Compact(vs)
}

func suffixKey(depth int, suffixes []uint16) string {
	var sb strings.Builder
	sb.WriteByte(byte(depth))
	for _, v := range suffixes {
		sb.WriteByte(byte(v))
		sb.WriteByte(byte(v >> 8))
	}
	return sb.String()
}

// WideToRate runs the full wide pipeline: nibble conversion, minimization,
// and striding to the requested rate. At rate 4 the machine consumes one
// 16-bit symbol per cycle.
func WideToRate(a *automata.WideAutomaton, rate int) (*automata.UnitAutomaton, error) {
	if rate != 1 && rate != 2 && rate != 4 {
		return nil, fmt.Errorf("transform: unsupported rate %d", rate)
	}
	return strideTo(WideToNibble(a), rate)
}

// WideEquivalentOnInput checks that a transformed wide automaton generates
// exactly the original's reports on a symbol stream.
func WideEquivalentOnInput(a *automata.WideAutomaton, ua *automata.UnitAutomaton, symbols []uint16) error {
	ref := funcsim.NewWideSimulator(a).Run(symbols)
	units := funcsim.SymbolsToUnits(symbols)
	got := funcsim.RunUnits(ua, units)

	refSet := make([]reportAt, 0, len(ref.Events))
	for _, ev := range ref.Events {
		refSet = append(refSet, reportAt{symbol: ev.Cycle, origin: ev.Origin, code: ev.Code})
	}
	gotSet := make([]reportAt, 0, len(got.Events))
	for _, ev := range got.Events {
		gotSet = append(gotSet, reportAt{symbol: ev.Unit / int64(ua.SymbolUnits), origin: ev.Origin, code: ev.Code})
	}
	sortReports(refSet)
	sortReports(gotSet)
	if len(refSet) != len(gotSet) {
		return fmt.Errorf("transform: wide report count mismatch: original %d, transformed %d", len(refSet), len(gotSet))
	}
	for i := range refSet {
		if refSet[i] != gotSet[i] {
			return fmt.Errorf("transform: wide report %d mismatch: original (symbol %d, origin %d), transformed (symbol %d, origin %d)",
				i, refSet[i].symbol, refSet[i].origin, gotSet[i].symbol, gotSet[i].origin)
		}
	}
	return nil
}
