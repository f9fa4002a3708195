package transform

import (
	"fmt"
	"slices"

	"sunder/internal/automata"
)

// Vectorized temporal striding (Section 4, "Temporal striding"; Impala's
// transformation): repeatedly square the automaton's input so each state
// consumes twice as many units per cycle. A strided state's match vector is
// the concatenation of two original match vectors, which maps directly onto
// Sunder's per-position 16-row groups combined by multi-row activation.
//
// Terminology used below:
//
//   - A "residual" state has reports but no successors and don't-care
//     (full) unit sets past its real prefix. Residuals capture reports that
//     fall in the middle of a vector: when a reporting state is consumed at
//     a non-final position, the continuation may fail to match and yet the
//     report must still fire. Routing all mid-vector reports through
//     residual states (whose tails match anything, including padding) makes
//     the construction exact and avoids double counting.
//
//   - A "shifted" start state covers pattern occurrences that begin in the
//     middle of a vector. Shifts are only created at original-symbol
//     boundaries (offset r is a boundary iff r is a multiple of
//     SymbolUnits), which is why 2-nibble striding of byte automata adds no
//     shifted states but 4-nibble striding does — the source of the
//     4-nibble state overhead in Table 3.
//
// Invariant maintained by every constructor in this package: a state with
// successors reports only at its final offset; states reporting at earlier
// offsets are residuals.

// strideKey identifies a state of the strided automaton.
type strideKey struct {
	kind byte // 'P' pair, 'L' lift, 'S' shifted start
	q1   automata.StateID
	q2   automata.StateID // pair only
}

type strider struct {
	in  *automata.UnitAutomaton
	out *automata.UnitAutomaton
	// The interned strided states' IDs, -1 until first use: lift and
	// shift per input state, pair per input edge, numbering q1's
	// successor list from edge[q1].
	lift, shift, pair []automata.StateID
	edge              []int
	work              []strideKey
}

// Stride2 doubles the processing rate of a unit automaton. The result
// consumes 2×Rate units per cycle and generates the identical multiset of
// (unit-position, report-code) events. in must be normalized, as every
// constructor in this package leaves it.
func Stride2(in *automata.UnitAutomaton) (*automata.UnitAutomaton, error) {
	if in.Rate*2 > automata.MaxRate {
		return nil, fmt.Errorf("transform: striding rate %d exceeds maximum rate %d", in.Rate*2, automata.MaxRate)
	}
	n := len(in.States)
	s := &strider{in: in, out: automata.NewUnitAutomaton(in.UnitBits, in.Rate*2, in.SymbolUnits), edge: make([]int, n+1)}
	for q := range in.States {
		s.edge[q+1] = s.edge[q] + len(in.States[q].Succ)
	}
	ids := make([]automata.StateID, 2*n+s.edge[n])
	for i := range ids {
		ids[i] = -1
	}
	s.lift, s.shift, s.pair = ids[:n], ids[n:2*n], ids[2*n:]
	s.seedStarts()
	for len(s.work) > 0 {
		k := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.wire(k)
	}
	s.out.Normalize()
	if err := s.out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: striding produced invalid automaton: %w", err)
	}
	return s.out, nil
}

// isResidual reports whether input state q is a residual.
func (s *strider) isResidual(q automata.StateID) bool {
	st := &s.in.States[q]
	return len(st.Reports) > 0 && len(st.Succ) == 0
}

// finalReports returns q's reports, which for a non-residual state all sit
// at the final offset.
func (s *strider) reportsShifted(q automata.StateID, delta int) []automata.Report {
	src := s.in.States[q].Reports
	if len(src) == 0 {
		return nil
	}
	out := make([]automata.Report, len(src))
	for i, r := range src {
		r.Offset += uint8(delta)
		out[i] = r
	}
	return out
}

// slot returns where the ID of the state for key k is kept.
func (s *strider) slot(k strideKey) *automata.StateID {
	switch k.kind {
	case 'L':
		return &s.lift[k.q1]
	case 'S':
		return &s.shift[k.q1]
	}
	j, _ := slices.BinarySearch(s.in.States[k.q1].Succ, k.q2)
	return &s.pair[s.edge[k.q1]+j]
}

// get interns the state for key k, allocating it (and queueing it for
// wiring) on first use.
func (s *strider) get(k strideKey) automata.StateID {
	slot := s.slot(k)
	if *slot >= 0 {
		return *slot
	}
	r := s.in.Rate
	dontCare := automata.AllUnits(s.in.UnitBits)
	var st automata.UnitState
	switch k.kind {
	case 'P':
		q1, q2 := &s.in.States[k.q1], &s.in.States[k.q2]
		for p := 0; p < r; p++ {
			st.Match[p] = q1.Match[p]
			st.Match[r+p] = q2.Match[p]
		}
		st.Reports = s.reportsShifted(k.q2, r)
	case 'L':
		q := &s.in.States[k.q1]
		for p := 0; p < r; p++ {
			st.Match[p] = q.Match[p]
			st.Match[r+p] = dontCare
		}
		st.Reports = s.reportsShifted(k.q1, 0)
	case 'S':
		q := &s.in.States[k.q1]
		for p := 0; p < r; p++ {
			st.Match[p] = dontCare
			st.Match[r+p] = q.Match[p]
		}
		st.Start = automata.StartAllInput
		st.Reports = s.reportsShifted(k.q1, r)
	}
	id := s.out.AddState(st)
	*slot = id
	s.work = append(s.work, k)
	return id
}

// continueFrom returns the strided successors reached when input state q's
// vector has just been fully consumed: for each q3 ∈ succ(q), the pairs
// (q3,·), the lift of q3 when q3 reports (so a mid-vector report cannot be
// lost), and the lift of q3 when q3 is itself residual.
func (s *strider) continueFrom(q automata.StateID) []automata.StateID {
	var out []automata.StateID
	for _, q3 := range s.in.States[q].Succ {
		// A residual reports and has no successors: its lift alone.
		if len(s.in.States[q3].Reports) > 0 {
			out = append(out, s.get(strideKey{kind: 'L', q1: q3}))
		}
		for _, q4 := range s.in.States[q3].Succ {
			out = append(out, s.get(strideKey{kind: 'P', q1: q3, q2: q4}))
		}
	}
	return out
}

// wire fills in the successor list of the already-allocated state for k.
func (s *strider) wire(k strideKey) {
	// A lift is residual in the output: no successors. A pair continues
	// from its second state, a shifted start from its only one.
	q := k.q1
	if k.kind == 'P' {
		q = k.q2
	}
	if k.kind != 'L' && !s.isResidual(q) {
		s.out.States[*s.slot(k)].Succ = s.continueFrom(q)
	}
}

// seedStarts creates the start states of the strided automaton.
func (s *strider) seedStarts() {
	r := s.in.Rate
	// A shifted variant exists only when offset r lands on an original
	// symbol boundary; otherwise no pattern can begin there.
	shiftAligned := r%s.in.SymbolUnits == 0
	for i := range s.in.States {
		q := &s.in.States[i]
		if q.Start == automata.StartNone {
			continue
		}
		qid := automata.StateID(i)
		// A residual reports and has no successors: its lift alone.
		if len(q.Reports) > 0 {
			id := s.get(strideKey{kind: 'L', q1: qid})
			s.out.States[id].Start = q.Start
		}
		for _, q2 := range q.Succ {
			id := s.get(strideKey{kind: 'P', q1: qid, q2: q2})
			s.out.States[id].Start = q.Start
		}
		if q.Start == automata.StartAllInput && shiftAligned {
			s.get(strideKey{kind: 'S', q1: qid}) // marks itself StartAllInput
		}
	}
}

// ToRate converts a byte-oriented automaton to a nibble automaton at the
// requested processing rate (1, 2 or 4 nibbles per cycle), minimizing
// between striding passes. This is the full Section 4 pipeline.
func ToRate(a *automata.Automaton, rate int) (*automata.UnitAutomaton, error) {
	if rate != 1 && rate != 2 && rate != 4 {
		return nil, fmt.Errorf("transform: unsupported rate %d (want 1, 2 or 4 nibbles)", rate)
	}
	return strideTo(ToNibble(a), rate)
}

// strideTo minimizes ua, then strides and minimizes it until it consumes
// rate units per cycle.
func strideTo(ua *automata.UnitAutomaton, rate int) (*automata.UnitAutomaton, error) {
	Minimize(ua)
	for ua.Rate < rate {
		var err error
		if ua, err = Stride2(ua); err != nil {
			return nil, err
		}
		Minimize(ua)
	}
	return ua, nil
}
