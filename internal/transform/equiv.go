package transform

import (
	"cmp"
	"fmt"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// reportAt is a (symbol position, origin, code) triple, the unit of
// comparison for transformation equivalence: a correct transformation
// produces the identical multiset of reportAt values as the original byte
// automaton.
type reportAt struct {
	symbol int64
	origin int32
	code   int32
}

// EquivalentOnInput checks that the transformed automaton ua generates
// exactly the reports of the byte automaton a on the given input, and
// returns a descriptive error on the first divergence. It is the workhorse
// of the package's differential tests.
func EquivalentOnInput(a *automata.Automaton, ua *automata.UnitAutomaton, input []byte) error {
	ref := funcsim.RunBytes(a, input)
	units := funcsim.BytesToUnits(input, ua.UnitBits)
	got := funcsim.RunUnits(ua, units)

	refSet := make([]reportAt, 0, len(ref.Events))
	for _, ev := range ref.Events {
		refSet = append(refSet, reportAt{symbol: ev.Cycle, origin: ev.Origin, code: ev.Code})
	}
	gotSet := make([]reportAt, 0, len(got.Events))
	for _, ev := range got.Events {
		// A report ending inside the pad tail (appended to fill the last
		// vector) is phantom: a Pad unit satisfies any-unit positions, so a
		// pattern like `.` can "complete" on padding past the real input.
		if ev.Unit >= int64(len(units)) {
			continue
		}
		// A unit automaton reports at the final unit of the original
		// symbol, so integer division recovers the symbol index.
		gotSet = append(gotSet, reportAt{symbol: ev.Unit / int64(ua.SymbolUnits), origin: ev.Origin, code: ev.Code})
	}
	sortReports(refSet)
	sortReports(gotSet)
	if len(refSet) != len(gotSet) {
		return fmt.Errorf("transform: report count mismatch: original %d, transformed %d (input %q)",
			len(refSet), len(gotSet), truncate(input))
	}
	for i := range refSet {
		if refSet[i] != gotSet[i] {
			return fmt.Errorf("transform: report %d mismatch: original (symbol %d, origin %d, code %d), transformed (symbol %d, origin %d, code %d) (input %q)",
				i, refSet[i].symbol, refSet[i].origin, refSet[i].code,
				gotSet[i].symbol, gotSet[i].origin, gotSet[i].code, truncate(input))
		}
	}
	return nil
}

func sortReports(rs []reportAt) {
	slices.SortFunc(rs, func(x, y reportAt) int {
		return cmp.Or(cmp.Compare(x.symbol, y.symbol), cmp.Compare(x.origin, y.origin), cmp.Compare(x.code, y.code))
	})
}

func truncate(b []byte) string {
	const max = 64
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "..."
}
