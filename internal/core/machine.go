package core

import (
	"fmt"
	"math/bits"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
)

// Machine is a configured Sunder device: a set of processing units holding
// one transformed automaton, executing one input vector per cycle. It only
// matches: it owns what execution mutates — the active vectors and the
// cycle and access counters — and the configuration lives in an image
// shared with every clone. The reports it returns feed a reporting model
// (report.NewSunder models the in-place report regions).
type Machine struct {
	cfg   Config
	a     *automata.UnitAutomaton
	place *mapping.Placement
	// img is the configuration image (see image), shared and read-only.
	img *image

	// active[i] is PU i's active-state vector (the pink register of
	// Figure 4); enables is the per-cycle scratch the next one is built in.
	active, enables []bitvec.V256

	kernelCycles int64
	energy       EnergyCounters
	// tel is the attached telemetry sink; nil (the default) disables all
	// instrumentation at the cost of one branch per site.
	tel *telemetrySink
	// noStartData suppresses start-of-data injection on cycle zero (see
	// SuppressStartOfData); set on shard-worker clones replaying mid-stream.
	noStartData bool
}

// Configure builds a Machine from a transformed automaton and a placement.
// The automaton's rate must equal the configuration's, and the placement
// must have been produced with the same report-column budget.
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
	if place.ReportColumns != cfg.ReportColumns {
		return nil, fmt.Errorf("core: placement used %d report columns, config has %d",
			place.ReportColumns, cfg.ReportColumns)
	}
	img, err := buildImage(a, place, cfg)
	if err != nil {
		return nil, err
	}
	return newMachine(cfg, a, place, img), nil
}

// newMachine returns a machine in its post-configuration state over img.
func newMachine(cfg Config, a *automata.UnitAutomaton, place *mapping.Placement, img *image) *Machine {
	vecs := make([]bitvec.V256, 2*img.npu)
	return &Machine{
		cfg:     cfg,
		a:       a,
		place:   place,
		img:     img,
		active:  vecs[:img.npu:img.npu],
		enables: vecs[img.npu:],
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Placement returns the placement the machine was configured with: where
// each state sits, which is what a reporting model maps reports through.
func (m *Machine) Placement() *mapping.Placement { return m.place }

// NumPUs returns the number of processing units in use.
func (m *Machine) NumPUs() int { return m.img.npu }

// KernelCycles returns the cycles executed since configuration or Reset.
func (m *Machine) KernelCycles() int64 { return m.kernelCycles }

// ActiveStates appends the automaton state IDs of every currently active
// column across PUs.
func (m *Machine) ActiveStates(dst []automata.StateID) []automata.StateID {
	for i, a := range m.active {
		dst = AppendStates(dst, m.place.StateAt[i], a)
	}
	return dst
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

// Step executes one cycle on a vector of Rate units (funcsim.Pad allowed)
// and appends the active reporting states to dst, returning it.
//
// The loops work on whole words of the dense per-PU vectors and touch only
// what a cycle needs: crossbar rows of active columns, global switches of
// active columns that have any, match rows of PUs with a live enable. What
// the device would have done regardless — one Port-2 match read per PU per
// cycle — is still what the energy counters record.
func (m *Machine) Step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	rate := m.cfg.Rate
	if len(vec) != rate {
		panic(fmt.Sprintf("core: vector length %d != rate %d", len(vec), rate))
	}
	img := m.img
	npu := img.npu
	act, en := m.active[:npu], m.enables[:npu]
	cycle := m.kernelCycles
	injectAll := (cycle*int64(rate))%int64(m.a.SymbolUnits) == 0
	injectData := cycle == 0 && !m.noStartData

	// Enables from the previous active vectors: start enables, the local
	// crossbar (one row per active column), then the global switches.
	xbarReads := 0
	for i := range act {
		var e0, e1, e2, e3 uint64
		if injectAll {
			s := &img.startAll[i]
			e0, e1, e2, e3 = s[0], s[1], s[2], s[3]
		}
		if injectData {
			s := &img.startData[i]
			e0, e1, e2, e3 = e0|s[0], e1|s[1], e2|s[2], e3|s[3]
		}
		if a := &act[i]; a[0]|a[1]|a[2]|a[3] != 0 {
			xbar := img.xbar[i*ColsPerSubarray:][:ColsPerSubarray]
			for w, x := range a {
				for ; x != 0; x &= x - 1 {
					r := &xbar[w<<6|bits.TrailingZeros64(x)]
					e0, e1, e2, e3 = e0|r[0], e1|r[1], e2|r[2], e3|r[3]
					xbarReads++
				}
			}
		}
		en[i] = bitvec.V256{e0, e1, e2, e3}
	}
	m.energy.MatchReads += int64(npu)
	m.energy.XbarRowReads += int64(xbarReads)
	if len(img.gxOut) > 0 {
		for i := range act {
			hot := act[i].And(img.gxCols[i])
			if !hot.Any() {
				continue
			}
			starts := img.gxStart[i*ColsPerSubarray:][:ColsPerSubarray+1]
			for w, x := range hot {
				for ; x != 0; x &= x - 1 {
					src := w<<6 | bits.TrailingZeros64(x)
					for _, out := range img.gxOut[starts[src]:starts[src+1]] {
						en[out.pu] = en[out.pu].Or(out.cols)
					}
				}
			}
		}
	}

	// Match (Port 2 multi-row activation: the group rows selected by the
	// 4:16 decoders, ANDed; a padding unit selects the don't-care row) and
	// activate, then collect the active report columns, which the device
	// writes to its report region through Port 1 in the same cycle.
	var rows [4][]bitvec.V256
	for g, u := range vec {
		if u < 0 {
			rows[g] = img.dontCare[g*npu:][:npu]
		} else {
			rows[g] = img.match[(RowsPerNibble*g+int(u))*npu:][:npu]
		}
	}
	for i := range act {
		e := &en[i]
		a0, a1, a2, a3 := e[0], e[1], e[2], e[3]
		if a0|a1|a2|a3 == 0 {
			act[i] = bitvec.V256{}
			continue
		}
		for g := 0; g < rate; g++ {
			r := &rows[g][i]
			a0, a1, a2, a3 = a0&r[0], a1&r[1], a2&r[2], a3&r[3]
		}
		act[i] = bitvec.V256{a0, a1, a2, a3}
		r := &img.reportMask[i]
		a0, a1, a2, a3 = a0&r[0], a1&r[1], a2&r[2], a3&r[3]
		if a0|a1|a2|a3 == 0 {
			continue
		}
		dst = AppendStates(dst, m.place.StateAt[i], bitvec.V256{a0, a1, a2, a3})
	}
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
