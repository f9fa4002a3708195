package core

import (
	"errors"
	"fmt"
	"math/bits"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/nfa"
)

// Machine is a configured Sunder device: a set of processing units holding
// one transformed automaton, executing one input vector per cycle. It only
// matches: it owns what execution mutates — the active states and the cycle
// and access counters — and steps on an NFA plan shared with every clone
// (and with the lazy DFA of the same compile). The reports it returns feed
// a reporting model (report.NewSunder models the in-place report regions).
type Machine struct {
	cfg   Config
	a     *automata.UnitAutomaton
	place *mapping.Placement
	// plan is the word-level NFA step over the states in placement order
	// (PU-major, column-minor), and reports the report table of the same
	// states; both are shared and read-only.
	plan    *nfa.Plan
	reports *ReportTable

	// active is the active set in the plan's rank order — every PU's
	// active-state vector (the pink register of Figure 4) end to end;
	// next is the scratch the next one is built in, and latches the plan's
	// memo of the active latches' successors.
	active, next []uint64
	latches      nfa.Latches

	kernelCycles int64
	energy       EnergyCounters
	// tel is the attached telemetry sink; nil (the default) disables all
	// instrumentation at the cost of one branch per site. muted holds it
	// while MuteTelemetry silences it.
	tel, muted *telemetrySink
	// noStartData suppresses start-of-data injection on cycle zero (see
	// SuppressStartOfData); set on shard-worker clones replaying mid-stream.
	noStartData bool
}

// ErrNoFit is wrapped by every Build error that comes from placing the
// automaton, as opposed to configuring the placed device.
var ErrNoFit = errors.New("rule set does not fit the device")

// Build is the one compile step from a transformed automaton to a device:
// it picks the report-column budget m closest to cfg.ReportColumns that
// every component fits (mapping.AutoReportColumns), places the automaton
// with it and configures a machine, which carries the budget in Config
// and the placement in Placement.
func Build(a *automata.UnitAutomaton, cfg Config) (*Machine, error) {
	m, err := mapping.AutoReportColumns(a, cfg.ReportColumns)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoFit, err)
	}
	cfg.ReportColumns = m
	place, err := mapping.Place(a, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoFit, err)
	}
	return Configure(a, place, cfg)
}

// Configure builds a Machine from a transformed automaton and a placement.
// The automaton's rate must equal the configuration's, and the placement
// must have been produced with the same report-column budget. The
// placement's routes are checked once here: every report state sits in a
// report column and no edge crosses clusters, so the device's crossbars and
// global switches carry every successor list the plan steps on.
func Configure(a *automata.UnitAutomaton, place *mapping.Placement, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.UnitBits != 4 {
		return nil, fmt.Errorf("core: machine executes nibble automata; got %d-bit units", a.UnitBits)
	}
	if a.Rate != cfg.Rate {
		return nil, fmt.Errorf("core: automaton rate %d != configured rate %d", a.Rate, cfg.Rate)
	}
	if place.NumPUs > maxPUs {
		return nil, fmt.Errorf("core: placement uses %d PUs, more than the %d a report table locates", place.NumPUs, maxPUs)
	}
	if place.ReportColumns != cfg.ReportColumns {
		return nil, fmt.Errorf("core: placement used %d report columns, config has %d",
			place.ReportColumns, cfg.ReportColumns)
	}
	for s := range a.States {
		st, loc := &a.States[s], place.Of[s]
		if len(st.Reports) > 0 && loc.Col < ColsPerSubarray-cfg.ReportColumns {
			return nil, fmt.Errorf("core: report state %d placed outside report columns (col %d)", s, loc.Col)
		}
		for _, t := range st.Succ {
			if to := place.Of[t]; mapping.ClusterOf(loc.PU) != mapping.ClusterOf(to.PU) {
				return nil, fmt.Errorf("core: edge %d→%d crosses clusters (PU %d → PU %d)", s, t, loc.PU, to.PU)
			}
		}
	}
	order := make([]automata.StateID, 0, a.NumStates())
	for _, stateAt := range place.StateAt {
		for _, s := range stateAt {
			if s >= 0 {
				order = append(order, automata.StateID(s))
			}
		}
	}
	if len(order) != a.NumStates() {
		return nil, fmt.Errorf("core: placement holds %d of %d states", len(order), a.NumStates())
	}
	return newMachine(cfg, a, place, nfa.NewPlan(a, order), NewReportTable(a, place)), nil
}

// newMachine returns a machine in its post-configuration state over plan.
func newMachine(cfg Config, a *automata.UnitAutomaton, place *mapping.Placement, plan *nfa.Plan, reports *ReportTable) *Machine {
	w := plan.Words()
	vecs := make([]uint64, 2*w)
	return &Machine{
		cfg:     cfg,
		a:       a,
		place:   place,
		plan:    plan,
		reports: reports,
		active:  vecs[:w:w],
		next:    vecs[w:],
		latches: plan.NewLatches(),
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Placement returns the placement the machine was configured with: where
// each state sits, which is what a reporting model maps reports through.
func (m *Machine) Placement() *mapping.Placement { return m.place }

// Plan returns the NFA plan the machine steps on, shared with its clones: a
// lazy DFA built over it (dfa.PlanOver) shares the tables too.
func (m *Machine) Plan() *nfa.Plan { return m.plan }

// Reports returns the report table of the configured device, shared with
// its clones: what a Reducer and a report model (report.NewSunder) read.
func (m *Machine) Reports() *ReportTable { return m.reports }

// NumPUs returns the number of processing units in use.
func (m *Machine) NumPUs() int { return m.place.NumPUs }

// KernelCycles returns the cycles executed since configuration or Reset.
func (m *Machine) KernelCycles() int64 { return m.kernelCycles }

// ActiveStates appends the automaton state IDs of every currently active
// column across PUs, PU by PU in column order.
func (m *Machine) ActiveStates(dst []automata.StateID) []automata.StateID {
	return m.plan.AppendStates(dst, m.active)
}

// Rewind clears the active states, so the next cycle starts from an empty
// set as a cold machine's does, and keeps the cycle count and the energy
// counters. A prefiltered run rewinds between its candidate windows and
// stays one device run.
func (m *Machine) Rewind() { clear(m.active) }

// Reset returns the machine to its post-configuration state.
func (m *Machine) Reset() {
	clear(m.active)
	m.kernelCycles = 0
	m.energy = EnergyCounters{}
}

// Step executes one cycle on a vector of Rate units and appends the active
// reporting states to dst, PU by PU in column order, returning it. It is
// StepBytes on the bytes the units pair into; at rate 1 the unit is both
// nibbles of its byte, so the cycle's phase reads it either way. A Pad
// unit only ever arrives as part of a whole padded byte at the tail of the
// final vector, as funcsim.PadUnits pads byte input; a byte with one Pad
// unit is taken as a padded byte, and so is every byte after it.
func (m *Machine) Step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	if len(vec) != m.cfg.Rate {
		panic(fmt.Sprintf("core: vector length %d != rate %d", len(vec), m.cfg.Rate))
	}
	if len(vec) == 1 {
		vec = []funcsim.Unit{vec[0], vec[0]}
	}
	var buf [2]byte
	for j := 0; j < len(vec); j += 2 {
		if vec[j] == funcsim.Pad || vec[j+1] == funcsim.Pad {
			return m.StepBytes(buf[:j/2], (len(vec)-j)/2, dst)
		}
		buf[j/2] = byte(vec[j])<<4 | byte(vec[j+1])
	}
	return m.StepBytes(buf[:len(vec)/2], 0, dst)
}

// StepBytes executes one cycle on data, the cycle's input bytes up to the
// input's end, of which the last pad positions lie past it (only the final
// cycle of an input is padded), and appends the active reporting states to
// dst, PU by PU in column order, returning it. A cycle reads Rate/2 bytes,
// or at rate 1 the nibble of data[0] its phase selects: a byte is then two
// cycles, stepped on the same data.
//
// The cycle is the plan's step over the active set. The architectural
// counters follow from that set: every PU does one Port-2 match read per
// cycle, and every active column one crossbar row read.
func (m *Machine) StepBytes(data []byte, pad int, dst []automata.StateID) []automata.StateID {
	in := m.plan.ByteInput(data, pad, m.kernelCycles)
	reads, dst := m.plan.Step(m.next, m.active, in, m.kernelCycles, m.kernelCycles == 0 && !m.noStartData, &m.latches, dst)
	m.active, m.next = m.next, m.active
	m.energy.MatchReads += int64(m.place.NumPUs)
	m.energy.XbarRowReads += int64(reads)
	m.kernelCycles++
	if m.tel != nil {
		m.tel.kernelCycles.Inc()
	}
	return dst
}

// AppendStates appends the automaton states placed at the set columns of
// v, a PU's column vector under stateAt (one PU's Placement.StateAt).
func AppendStates(dst []automata.StateID, stateAt []int32, v bitvec.V256) []automata.StateID {
	for w, x := range v {
		for ; x != 0; x &= x - 1 {
			if s := stateAt[w<<6|bits.TrailingZeros64(x)]; s >= 0 {
				dst = append(dst, automata.StateID(s))
			}
		}
	}
	return dst
}
