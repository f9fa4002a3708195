package funcsim

import (
	"fmt"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

// Unit is one input unit for a UnitAutomaton: a nibble value 0..15 (or a bit
// 0..1 for binary automata), or Pad.
type Unit int8

// Pad marks input padding appended so the stream length is a multiple of
// the processing rate. A Pad unit satisfies only "don't care" positions
// (positions whose unit set is full), so a match ending mid-vector still
// fires through its residual tail. Caveat: a full unit set can also encode
// a real any-symbol requirement (`.`), so a report whose end unit falls in
// the padding is phantom — consumers that know the real input length
// (Engine.Scan/Stream, transform.EquivalentOnInput) filter those.
const Pad Unit = -1

// BytesToUnits expands a byte stream into a unit stream. For unitBits==4
// each byte becomes (high nibble, low nibble); for unitBits==1 each byte
// becomes its 8 bits most-significant first. This ordering is the
// transformation convention used by package transform.
func BytesToUnits(data []byte, unitBits int) []Unit {
	switch unitBits {
	case 4:
		return AppendNibbles(make([]Unit, 0, len(data)*2), data)
	case 1:
		out := make([]Unit, 0, len(data)*8)
		for _, b := range data {
			for i := 7; i >= 0; i-- {
				out = append(out, Unit((b>>uint(i))&1))
			}
		}
		return out
	default:
		panic(fmt.Sprintf("funcsim: unsupported unit width %d", unitBits))
	}
}

// AppendNibbles appends the 4-bit expansion of data (BytesToUnits with
// unitBits 4) to dst, so a caller feeding input span by span can reuse one
// buffer.
func AppendNibbles(dst []Unit, data []byte) []Unit {
	for _, b := range data {
		dst = append(dst, Unit(b>>4), Unit(b&0x0f))
	}
	return dst
}

// PadUnits appends Pad units so len(units) is a multiple of rate.
func PadUnits(units []Unit, rate int) []Unit {
	for len(units)%rate != 0 {
		units = append(units, Pad)
	}
	return units
}

// UnitSimulator executes a transformed (unit) automaton at its configured
// rate: each cycle consumes Rate units.
type UnitSimulator struct {
	a *automata.UnitAutomaton
	// table[p][v] is the set of states whose position-p unit set accepts
	// value v.
	table [][]*bitvec.Vector
	// dontCare[p] is the set of states whose position-p unit set is full;
	// only these match a Pad unit at position p.
	dontCare   []*bitvec.Vector
	startAll   *bitvec.Vector
	startData  *bitvec.Vector
	reportMask *bitvec.Vector
	// succMask[i] is non-nil for high-fanout states (see fanoutThreshold).
	succMask []*bitvec.Vector

	active  *bitvec.Vector
	enabled *bitvec.Vector
	cycle   int64
}

// NewUnitSimulator builds a simulator for a.
func NewUnitSimulator(a *automata.UnitAutomaton) *UnitSimulator {
	n := a.NumStates()
	nv := 1 << uint(a.UnitBits)
	s := &UnitSimulator{
		a:          a,
		startAll:   bitvec.New(n),
		startData:  bitvec.New(n),
		reportMask: bitvec.New(n),
		active:     bitvec.New(n),
		enabled:    bitvec.New(n),
	}
	all := automata.AllUnits(a.UnitBits)
	s.succMask = make([]*bitvec.Vector, n)
	s.table = make([][]*bitvec.Vector, a.Rate)
	s.dontCare = make([]*bitvec.Vector, a.Rate)
	for p := 0; p < a.Rate; p++ {
		s.table[p] = make([]*bitvec.Vector, nv)
		for v := 0; v < nv; v++ {
			s.table[p][v] = bitvec.New(n)
		}
		s.dontCare[p] = bitvec.New(n)
	}
	for i := range a.States {
		st := &a.States[i]
		for p := 0; p < a.Rate; p++ {
			for v := 0; v < nv; v++ {
				if st.Match[p].Has(v) {
					s.table[p][v].Set(i)
				}
			}
			if st.Match[p] == all {
				s.dontCare[p].Set(i)
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			s.startAll.Set(i)
		case automata.StartOfData:
			s.startData.Set(i)
		}
		if len(st.Reports) > 0 {
			s.reportMask.Set(i)
		}
		if len(st.Succ) >= fanoutThreshold {
			mask := bitvec.New(n)
			for _, t := range st.Succ {
				mask.Set(int(t))
			}
			s.succMask[i] = mask
		}
	}
	return s
}

// Reset returns the simulator to its initial configuration.
func (s *UnitSimulator) Reset() {
	s.active.Reset()
	s.cycle = 0
}

// Active returns the current active-state vector (live view; do not mutate).
func (s *UnitSimulator) Active() *bitvec.Vector { return s.active }

// Cycle returns the number of cycles executed since the last Reset.
func (s *UnitSimulator) Cycle() int64 { return s.cycle }

// Step consumes one vector of Rate units and returns the active reporting
// states for this cycle. The returned slice is reused across calls.
func (s *UnitSimulator) Step(vec []Unit, scratch []automata.StateID) []automata.StateID {
	if len(vec) != s.a.Rate {
		panic(fmt.Sprintf("funcsim: vector length %d != rate %d", len(vec), s.a.Rate))
	}
	s.enabled.Reset()
	if s.cycle == 0 {
		s.enabled.Or(s.startData)
	}
	// Unanchored starts re-activate only when the vector begins at an
	// original-symbol boundary; other alignments are covered by the
	// shifted start variants created during striding.
	if (s.cycle*int64(s.a.Rate))%int64(s.a.SymbolUnits) == 0 {
		s.enabled.Or(s.startAll)
	}
	s.active.ForEach(func(i int) bool {
		if m := s.succMask[i]; m != nil {
			s.enabled.Or(m)
			return true
		}
		for _, t := range s.a.States[i].Succ {
			s.enabled.Set(int(t))
		}
		return true
	})
	for p, u := range vec {
		if u == Pad {
			s.enabled.And(s.dontCare[p])
		} else {
			s.enabled.And(s.table[p][u])
		}
	}
	s.active, s.enabled = s.enabled, s.active
	s.cycle++

	if !s.active.Intersects(s.reportMask) {
		return nil
	}
	out := scratch[:0]
	s.active.ForEach(func(i int) bool {
		if s.reportMask.Get(i) {
			out = append(out, automata.StateID(i))
		}
		return true
	})
	return out
}

// dedupKey identifies one logical report within a cycle: after temporal
// striding, several simultaneously active states can represent the same
// logical match (a vector-aligned occurrence and a continuation of the
// previous vector). Deduplicating by (offset, origin) restores the original
// automaton's one-report-per-report-point-per-position semantics.
type dedupKey struct {
	offset uint8
	origin int32
}

// Run executes the simulator over a unit stream (padded internally if its
// length is not a multiple of the rate) and returns aggregate results.
func (s *UnitSimulator) Run(units []Unit, opts Options) *Result {
	units = PadUnits(units, s.a.Rate)
	res := &Result{}
	var scratch []automata.StateID
	seen := make(map[dedupKey]bool)
	for off := 0; off < len(units); off += s.a.Rate {
		cycle := s.cycle
		reports := s.Step(units[off:off+s.a.Rate], scratch)
		scratch = reports
		res.Cycles++
		if opts.TrackActive {
			if n := s.active.Count(); n > res.MaxActive {
				res.MaxActive = n
			}
		}
		if len(reports) == 0 {
			continue
		}
		clear(seen)
		nrep := 0
		for _, id := range reports {
			st := &s.a.States[id]
			for _, r := range st.Reports {
				k := dedupKey{offset: r.Offset, origin: r.Origin}
				if seen[k] {
					continue
				}
				seen[k] = true
				nrep++
				if opts.RecordEvents {
					res.Events = append(res.Events, ReportEvent{
						Cycle:  cycle,
						Unit:   cycle*int64(s.a.Rate) + int64(r.Offset),
						State:  id,
						Code:   r.Code,
						Origin: r.Origin,
					})
				}
			}
		}
		res.ReportCycles++
		res.Reports += int64(nrep)
		if nrep > res.MaxReportsPerCycle {
			res.MaxReportsPerCycle = nrep
		}
		if opts.OnReportCycle != nil {
			opts.OnReportCycle(cycle, reports)
		}
	}
	return res
}

// RunUnits is a convenience wrapper: build, run with events recorded.
func RunUnits(a *automata.UnitAutomaton, units []Unit) *Result {
	return NewUnitSimulator(a).Run(units, Options{RecordEvents: true})
}
