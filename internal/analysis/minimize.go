package analysis

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sunder/internal/automata"
	"sunder/internal/mapping"
)

// mergeCap bounds the member count of one merged equivalence class. It
// mirrors the cluster capacity the mapper works with (256 states per PU,
// 4 PUs per cluster): collapsing more than a cluster's worth of states
// into one would concentrate fan-in/fan-out past anything the placement
// can route. The passes split oversized classes and re-refine, so the
// emitted certificate is still a valid (just non-coarsest) partition.
const mergeCap = 1024

// MinimizeResult summarizes one Minimize call.
type MinimizeResult struct {
	// Before and After are the state counts around the minimization.
	Before int
	After  int
	// Pruned counts states removed by the interleaved dead-state rounds;
	// BisimMerged and PrefixMerged count states folded away by the
	// bisimulation and co-activation (cross-rule prefix collapse)
	// quotients respectively. Before-After = Pruned+BisimMerged+PrefixMerged.
	Pruned       int
	BisimMerged  int
	PrefixMerged int
	// Rounds is the number of prune→bisim→prefix fixpoint iterations run.
	Rounds int
	// Cert is the machine-checkable equivalence certificate: the ordered
	// chain of per-step partition/merge maps with witnesses. Pass it to
	// CheckCertificate together with a pre-minimization clone to verify
	// the rewrite without trusting this implementation.
	Cert *Certificate
}

// Removed returns the total number of states removed.
func (r MinimizeResult) Removed() int { return r.Before - r.After }

// Merged returns the number of states removed by merging (as opposed to
// dead-state pruning).
func (r MinimizeResult) Merged() int { return r.BisimMerged + r.PrefixMerged }

// MinimizeSummary is the persistable digest of a minimization run — what
// the compile cache stores alongside the artifact so engines built from a
// hit report the same counts as the original compile.
type MinimizeSummary struct {
	Before       int
	After        int
	Pruned       int
	BisimMerged  int
	PrefixMerged int
	Steps        int
}

// Summary returns the persistable digest of the result.
func (r MinimizeResult) Summary() MinimizeSummary {
	s := MinimizeSummary{
		Before:       r.Before,
		After:        r.After,
		Pruned:       r.Pruned,
		BisimMerged:  r.BisimMerged,
		PrefixMerged: r.PrefixMerged,
	}
	if r.Cert != nil {
		s.Steps = len(r.Cert.Steps)
	}
	return s
}

// Minimize shrinks the automaton in place by interleaving three certified
// rewrites to a fixpoint:
//
//   - dead-state prune rounds (the verdicts Analyze's liveness pass
//     reports, one round per certificate step, each carrying its
//     subsumption witnesses);
//   - backward-bisimulation partition refinement: states with equal start
//     kind, match vectors, report triples and successor *classes* are
//     merged — unlike the compile-time signature merge in
//     transform.Minimize, refinement starts from one coarse class and
//     splits, so symmetric cycles (two states looping on themselves with
//     identical behaviour) collapse too;
//   - co-activation (common-prefix) collapse: states with equal start
//     kind, match vectors and predecessor *classes* are provably active
//     on exactly the same cycles, so they merge into one state carrying
//     the union of their successors and report triples. Across rules
//     compiled into one set this folds shared pattern prefixes into a
//     single chain with merged fan-out.
//
// The interleaving matters: pruning deletes dead states from successor
// and predecessor sets, unlocking merges the compile-time minimizer could
// not see, and merging can in turn make states subsumable.
//
// Every step appends its partition map to the returned certificate.
// Minimize's contract is certified, not trusted: MinimizeCertified
// re-verifies the chain with CheckCertificate against a pre-minimization
// clone.
func Minimize(ua *automata.UnitAutomaton) MinimizeResult {
	ua.Normalize()
	res := MinimizeResult{Before: len(ua.States), Cert: &Certificate{}}
	for {
		changed := false
		for {
			step, removed := pruneStep(ua)
			if step == nil {
				break
			}
			res.Cert.Steps = append(res.Cert.Steps, *step)
			res.Pruned += removed
			changed = true
		}
		if step, removed := bisimStep(ua); step != nil {
			res.Cert.Steps = append(res.Cert.Steps, *step)
			res.BisimMerged += removed
			changed = true
		}
		if step, removed := prefixStep(ua); step != nil {
			res.Cert.Steps = append(res.Cert.Steps, *step)
			res.PrefixMerged += removed
			changed = true
		}
		res.Rounds++
		if !changed {
			break
		}
	}
	res.After = len(ua.States)
	return res
}

// MinimizeCertified minimizes ua in place and verifies the equivalence
// certificate against a clone taken before, so a rejected minimization
// fails instead of shipping a wrong automaton.
func MinimizeCertified(ua *automata.UnitAutomaton) (MinimizeResult, error) {
	pre := ua.Clone()
	res := Minimize(ua)
	if err := CheckCertificate(pre, ua, res.Cert); err != nil {
		return res, fmt.Errorf("minimization certificate rejected: %w", err)
	}
	return res, nil
}

// pruneStep runs one dead-state marking round, applies it, and returns the
// certificate step (nil if nothing was removable). Subsumption witnesses
// are resolved through same-round dominator chains to a surviving state:
// domination is transitive in every component relation, so the chain's
// endpoint dominates the removed state directly and the checker can verify
// it without replaying the chain.
func pruneStep(ua *automata.UnitAutomaton) (*MergeStep, int) {
	mark, dom := markDeadRound(ua)
	removed := 0
	for _, m := range mark {
		if m != live {
			removed++
		}
	}
	if removed == 0 {
		return nil, 0
	}
	n := len(ua.States)
	step := &MergeStep{
		Kind:       StepPrune,
		Class:      make([]automata.StateID, n),
		NumClasses: n - removed,
		Reason:     make([]uint8, n),
		Dominator:  make([]automata.StateID, n),
	}
	next := 0
	for i := 0; i < n; i++ {
		step.Dominator[i] = -1
		if mark[i] == live {
			step.Class[i] = automata.StateID(next)
			next++
			continue
		}
		step.Class[i] = -1
		step.Reason[i] = uint8(mark[i])
		if mark[i] == deadSubsumed {
			d := dom[i]
			for d >= 0 && mark[d] != live {
				d = dom[d]
			}
			step.Dominator[i] = d
		}
	}
	orig := make([]automata.StateID, n)
	for i := range orig {
		orig[i] = automata.StateID(i)
	}
	out, _ := rebuildLive(ua, orig, mark)
	out.Normalize()
	*ua = *out
	return step, removed
}

// bisimStep computes the coarsest phase-respecting bisimulation partition,
// applies the quotient, and returns the certificate step (nil if every
// class is a singleton). Two states share a class iff they have equal
// start kind, match vectors, report triples, symbol phase and equal sets
// of successor classes — so an activation of either has indistinguishable
// observable consequences, and the quotient replays the original's report
// stream exactly.
func bisimStep(ua *automata.UnitAutomaton) (*MergeStep, int) {
	n := len(ua.States)
	if n == 0 {
		return nil, 0
	}
	ua.Normalize()
	phases := computePhases(ua)
	// forced tags keep apart states whose merge would fuse connected
	// components past the cluster capacity (see capacityForce).
	forced := make(map[int]int)
	for {
		class := make([]int, n)
		keys := make(map[string]int, n)
		var buf []byte
		for i := range ua.States {
			s := &ua.States[i]
			buf = buf[:0]
			buf = append(buf, byte(s.Start))
			buf = binary.LittleEndian.AppendUint16(buf, phases[i])
			for p := 0; p < ua.Rate; p++ {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(s.Match[p]))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(forced[i]))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Reports)))
			for _, r := range s.Reports {
				buf = append(buf, r.Offset)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Code))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
			}
			id, ok := keys[string(buf)]
			if !ok {
				id = len(keys)
				keys[string(buf)] = id
			}
			class[i] = id
		}
		var num int
		class, num = refineClasses(n, class, len(keys), func(i int) []automata.StateID {
			return ua.States[i].Succ
		})
		if num == n {
			return nil, 0
		}
		if capacityForce(ua, class, num, forced) {
			continue
		}
		step := newMergeStep(StepBisim, class, num)
		applyBisim(ua, step)
		return step, n - num
	}
}

// prefixStep computes the coarsest phase-respecting co-activation partition,
// applies the quotient, and returns the certificate step (nil if every
// class is a singleton). Two states share a class iff they have equal start
// kind, match vectors, symbol phase and equal sets of predecessor classes:
// by induction over cycles their enable signals are identical, so they are
// active on exactly the same cycles and merge into one state carrying the
// union of their successors and reports. The per-cycle (Offset, Origin)
// report deduplication both simulators apply makes the union emit exactly
// the events the members emitted together.
func prefixStep(ua *automata.UnitAutomaton) (*MergeStep, int) {
	n := len(ua.States)
	if n == 0 {
		return nil, 0
	}
	ua.Normalize()
	phases := computePhases(ua)
	preds := make([][]automata.StateID, n)
	for i := range ua.States {
		for _, t := range ua.States[i].Succ {
			preds[t] = append(preds[t], automata.StateID(i))
		}
	}
	// forced tags isolate states whose merged report union would carry two
	// codes under one (Offset, Origin) — the dedup would make the surviving
	// code order-dependent, so those states must not merge.
	forced := make(map[int]int)
	for {
		class := make([]int, n)
		keys := make(map[string]int, n)
		var buf []byte
		for i := range ua.States {
			s := &ua.States[i]
			buf = buf[:0]
			buf = append(buf, byte(s.Start))
			buf = binary.LittleEndian.AppendUint16(buf, phases[i])
			for p := 0; p < ua.Rate; p++ {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(s.Match[p]))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(forced[i]))
			id, ok := keys[string(buf)]
			if !ok {
				id = len(keys)
				keys[string(buf)] = id
			}
			class[i] = id
		}
		var num int
		class, num = refineClasses(n, class, len(keys), func(i int) []automata.StateID {
			return preds[i]
		})
		if num == n {
			return nil, 0
		}
		if dissolveReportConflicts(ua, class, num, forced) {
			continue
		}
		if capacityForce(ua, class, num, forced) {
			continue
		}
		step := newMergeStep(StepPrefix, class, num)
		applyPrefix(ua, step)
		return step, n - num
	}
}

// dissolveReportConflicts scans each multi-member class for two report
// triples sharing (Offset, Origin) with different codes; members of such a
// class get unique forced tags so the next refinement keeps them apart.
// It reports whether any class was dissolved.
func dissolveReportConflicts(ua *automata.UnitAutomaton, class []int, num int, forced map[int]int) bool {
	members := groupMembers(class, num)
	dissolved := false
	for _, ms := range members {
		if len(ms) < 2 {
			continue
		}
		type key struct {
			off    uint8
			origin int32
		}
		codes := make(map[key]int32)
		conflict := false
		for _, m := range ms {
			for _, r := range ua.States[m].Reports {
				k := key{r.Offset, r.Origin}
				if c, ok := codes[k]; ok && c != r.Code {
					conflict = true
				}
				codes[k] = r.Code
			}
		}
		if conflict {
			for _, m := range ms {
				forced[m] = m + 1
			}
			dissolved = true
		}
	}
	return dissolved
}

// capacityForce detects merge classes whose application would fuse
// connected components into one larger than the mapper's cluster
// capacity — a quotient the placement could never route. Members of an
// offending class get forced tags derived from their original component,
// so the next refinement keeps cross-component members apart while
// intra-component merges (and capacity-safe cross-rule prefix sharing)
// survive. Tags are negative, disjoint from the positive per-state tags
// dissolveReportConflicts assigns, and stable across iterations (the
// automaton does not change inside the pass loop), so the loop
// terminates. It reports whether any tag changed; the caller must
// re-refine.
func capacityForce(ua *automata.UnitAutomaton, class []int, num int, forced map[int]int) bool {
	n := len(ua.States)
	orig := newUnionFind(n)
	merged := newUnionFind(n)
	for i := range ua.States {
		for _, t := range ua.States[i].Succ {
			orig.union(i, int(t))
			merged.union(i, int(t))
		}
	}
	members := groupMembers(class, num)
	for _, ms := range members {
		for _, m := range ms[1:] {
			merged.union(ms[0], m)
		}
	}
	// A merged component's post-quotient state count is the number of
	// distinct classes it contains.
	sizes := make(map[int]map[int]struct{})
	for i := 0; i < n; i++ {
		r := merged.find(i)
		set := sizes[r]
		if set == nil {
			set = make(map[int]struct{})
			sizes[r] = set
		}
		set[class[i]] = struct{}{}
	}
	changed := false
	for _, ms := range members {
		if len(ms) < 2 || len(sizes[merged.find(ms[0])]) <= mapping.StatesPerCluster {
			continue
		}
		spans := false
		for _, m := range ms[1:] {
			if orig.find(m) != orig.find(ms[0]) {
				spans = true
				break
			}
		}
		if !spans {
			continue
		}
		for _, m := range ms {
			tag := -(orig.find(m) + 1)
			if forced[m] != tag {
				forced[m] = tag
				changed = true
			}
		}
	}
	return changed
}

// unionFind is a plain union-find over state indices with path halving.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int) {
	if ra, rb := uf.find(a), uf.find(b); ra != rb {
		uf[ra] = rb
	}
}

// refineClasses refines the partition until it is stable under the
// neighbour signature: two states stay together only when their current
// class and their sets of neighbour classes agree. neighbours is the
// successor list for bisimulation and the predecessor list for the
// co-activation pass. Classes larger than mergeCap are split and the
// refinement re-run, so the result is always a stable partition.
// Refinement only ever splits classes, so an unchanged class count means
// the partition is stable.
func refineClasses(n int, class []int, num int, neighbours func(i int) []automata.StateID) ([]int, int) {
	for {
		next := make([]int, n)
		keys := make(map[string]int, num)
		var buf []byte
		var set []int
		for i := 0; i < n; i++ {
			set = set[:0]
			for _, t := range neighbours(i) {
				set = append(set, class[t])
			}
			sort.Ints(set)
			buf = buf[:0]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(class[i]))
			last := -1
			for _, c := range set {
				if c == last {
					continue
				}
				last = c
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			}
			id, ok := keys[string(buf)]
			if !ok {
				id = len(keys)
				keys[string(buf)] = id
			}
			next[i] = id
		}
		newNum := len(keys)
		next, newNum = capClasses(next, newNum)
		if newNum == num {
			return next, newNum
		}
		class, num = next, newNum
	}
}

// capClasses splits classes with more than mergeCap members into
// mergeCap-sized chunks (in member order) and renumbers.
func capClasses(class []int, num int) ([]int, int) {
	counts := make([]int, num)
	for _, c := range class {
		counts[c]++
	}
	over := false
	for _, n := range counts {
		if n > mergeCap {
			over = true
			break
		}
	}
	if !over {
		return class, num
	}
	seen := make([]int, num)
	sub := make(map[[2]int]int)
	out := make([]int, len(class))
	for i, c := range class {
		chunk := seen[c] / mergeCap
		seen[c]++
		k := [2]int{c, chunk}
		id, ok := sub[k]
		if !ok {
			id = len(sub)
			sub[k] = id
		}
		out[i] = id
	}
	return out, len(sub)
}

// newMergeStep renumbers the partition by first-member order (so a class's
// representative is its lowest state ID) and wraps it in a MergeStep.
func newMergeStep(kind StepKind, class []int, num int) *MergeStep {
	renum := make([]automata.StateID, num)
	for i := range renum {
		renum[i] = -1
	}
	step := &MergeStep{Kind: kind, Class: make([]automata.StateID, len(class)), NumClasses: num}
	next := automata.StateID(0)
	for i, c := range class {
		if renum[c] < 0 {
			renum[c] = next
			next++
		}
		step.Class[i] = renum[c]
	}
	return step
}

// groupMembers returns the members of each class in increasing state order.
func groupMembers(class []int, num int) [][]int {
	out := make([][]int, num)
	for i, c := range class {
		out[c] = append(out[c], i)
	}
	return out
}

// applyBisim replaces ua with the bisimulation quotient described by step:
// each class becomes one state with its representative's start kind, match
// vectors and reports, and the class image of the representative's
// successors (equal for every member by the partition's stability).
func applyBisim(ua *automata.UnitAutomaton, step *MergeStep) {
	out := &automata.UnitAutomaton{UnitBits: ua.UnitBits, Rate: ua.Rate, SymbolUnits: ua.SymbolUnits}
	out.States = make([]automata.UnitState, step.NumClasses)
	built := make([]bool, step.NumClasses)
	for i := range ua.States {
		c := step.Class[i]
		if built[c] {
			continue
		}
		built[c] = true
		s := &ua.States[i]
		st := automata.UnitState{Start: s.Start, Match: s.Match}
		st.Reports = append([]automata.Report(nil), s.Reports...)
		st.Succ = classImage(step.Class, s.Succ)
		out.States[c] = st
	}
	out.Normalize()
	*ua = *out
}

// applyPrefix replaces ua with the co-activation quotient described by
// step: each class becomes one state with its representative's start kind
// and match vectors, the union of every member's reports, and the class
// image of the union of every member's successors.
func applyPrefix(ua *automata.UnitAutomaton, step *MergeStep) {
	out := &automata.UnitAutomaton{UnitBits: ua.UnitBits, Rate: ua.Rate, SymbolUnits: ua.SymbolUnits}
	out.States = make([]automata.UnitState, step.NumClasses)
	built := make([]bool, step.NumClasses)
	for i := range ua.States {
		c := step.Class[i]
		s := &ua.States[i]
		if !built[c] {
			built[c] = true
			out.States[c] = automata.UnitState{Start: s.Start, Match: s.Match}
		}
		st := &out.States[c]
		st.Reports = append(st.Reports, s.Reports...)
		st.Succ = append(st.Succ, classImage(step.Class, s.Succ)...)
	}
	out.Normalize()
	*ua = *out
}

// classImage maps the IDs through the class map, sorted and deduplicated.
func classImage(class []automata.StateID, ids []automata.StateID) []automata.StateID {
	out := make([]automata.StateID, 0, len(ids))
	for _, t := range ids {
		out = append(out, class[t])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
