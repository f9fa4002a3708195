package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/core"
)

// TestReducerGenerationWrap: the reducer's seen set is emptied by bumping a
// generation counter, and wiped when the counter wraps. Driven to the wrap
// after a run's worth of cycles has stamped the set, it must keep every
// cycle's de-duplication exact across it — a stale stamp equal to a
// post-wrap generation would drop a report — against a per-cycle map.
func TestReducerGenerationWrap(t *testing.T) {
	cfg := core.DefaultConfig(4)
	m, units := core.WorkloadMachine(t, "SPM", cfg, 4096)
	var stream [][]automata.StateID
	for off := 0; off+4 <= len(units); off += 4 {
		if ids := m.Step(units[off:off+4], nil); len(ids) > 0 {
			stream = append(stream, ids)
		}
	}
	tab := m.Reports()
	entries := tab.Entries()
	want := func(ids []automata.StateID) (n int) {
		seen := map[[2]int32]bool{}
		for _, id := range ids {
			for _, rep := range core.ReportEntriesOf(tab, id) {
				k := [2]int32{rep.Offset, rep.Origin}
				if !seen[k] {
					seen[k] = true
					n++
				}
			}
		}
		return n
	}
	check := func(label string, red *core.Reducer, ids []automata.StateID) (dups int) {
		t.Helper()
		kept := red.Cycle(ids, nil)
		if w := want(ids); len(kept) != w {
			t.Fatalf("%s: %d reports kept, want %d", label, len(kept), w)
		}
		total := 0
		for _, id := range ids {
			total += len(core.ReportEntriesOf(tab, id))
		}
		for _, i := range kept {
			if e := entries[i]; !slices.Contains(ids, e.State) {
				t.Fatalf("%s: kept an entry of state %d, which did not report", label, e.State)
			}
		}
		return total - len(kept)
	}
	// A cycle with a duplicate twice, the second time across the wrap: the
	// generation it wraps to is the one that stamped the first time.
	for c, ids := range stream {
		red := core.NewReducer(tab)
		if check("first", &red, ids) > 0 {
			core.SetReducerGeneration(&red, math.MaxUint32)
			check(fmt.Sprintf("report cycle %d after the wrap", c), &red, ids)
			break
		}
	}
	// The whole stream twice, the second pass wrapping three cycles in.
	red := core.NewReducer(tab)
	dups := [2]int{}
	for pass := range dups {
		if pass == 1 {
			core.SetReducerGeneration(&red, math.MaxUint32-3)
		}
		for c, ids := range stream {
			dups[pass] += check(fmt.Sprintf("pass %d, report cycle %d", pass, c), &red, ids)
		}
	}
	if dups[0] == 0 || dups[1] == 0 {
		t.Fatalf("the stream de-duplicates nothing (%v): the test exercises no seen set", dups)
	}
}
