// Package dfa is the lazy-DFA software backend: on-demand subset
// construction over a compiled unit automaton, with a bounded cache of DFA
// states, cleared whole when full, and byte-class-compressed, two-level
// transition rows.
//
// The determinization runs at cycle granularity. It is defined only for
// nibble automata whose rate is a whole number of symbols per cycle
// (Rate % SymbolUnits == 0, i.e. rates 2 and 4 for byte input split into
// nibbles): every cycle then starts at an original-symbol boundary, so the
// unanchored start states re-activate on *every* cycle and the cycle
// transition becomes a pure function of (active state set, input bytes) —
// exactly the memoizable shape a DFA needs. Rate-1 automata interleave two
// cycles per byte with time-dependent start injection and are rejected by
// Supported; callers fall back to the bitvec NFA core there.
//
// A DFA state is an NFA active-state set, one bit per device state in
// plain uint64 words. Its transitions are indexed not by the raw byte
// tuple but by the tuple of *symbol classes* from the certified
// analysis.SymbolClasses partition of the byte automaton: bytes in one
// class have identical match-matrix columns, so they drive the byte
// automaton identically, and (by the transformation's event-equivalence
// theorem) continuations from the sets they produce emit identical
// deduplicated report streams. Sharing one cell per class tuple is
// therefore output-sound even when the raw unit-level sets differ — see
// DESIGN.md §4.16 for the full argument and its proof obligations.
//
// A state uses a handful of its Classes^StepBytes class tuples, so the cells
// are stored in two levels of rows, one level per input byte: a first-level
// row per state at its premultiplied ID, ID×(Classes+1), whose cell for the
// first byte's class names a second-level row, allocated on first use, whose
// cell for the second byte's class is the next premultiplied ID. A row's
// extra slot flags state 0 ("none") and reporting states, so a hit in
// Runner.Run is two dependent loads and one flag test (DESIGN.md §4.16 has
// the layouts that lost).
//
// Cycle 0 (start-of-data injection is time-dependent; ResetMidStream's first
// cycle steps from an empty set instead), any cycle containing
// pad units (pad semantics depend on where the input ends) and, once the
// cache thrashes past Config.BlowupRatio, the rest of the run are not served
// from the cache: nfa.Plan.Step, the word-level NFA step the device core
// runs too, steps them and builds every missed transition. The successors
// of the self-looping states it steps from come from the runner's latch
// memo (nfa.Latches), which changes only when one of them comes on or goes
// off.
package dfa

import (
	"fmt"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/nfa"
)

// Supported reports whether the lazy DFA can execute a, and if not, why.
func Supported(a *automata.UnitAutomaton) (bool, string) {
	if a.UnitBits != 4 {
		return false, "not a nibble automaton"
	}
	return supported(a.SymbolUnits, a.Rate)
}

func supported(symbolUnits, rate int) (bool, string) {
	if symbolUnits != 2 {
		return false, "not a nibble automaton"
	}
	if rate%symbolUnits != 0 {
		return false, "rate below symbol units (cycles split bytes)"
	}
	return true, ""
}

// Plan is the lazy DFA's view of an nfa.Plan: the word-level NFA step it
// builds every missed transition with, plus the certified symbol-class
// partition its rows are indexed by. Plans are read-only after construction
// and safe to share across engines and goroutines.
type Plan struct {
	nfa       *nfa.Plan
	stepBytes int
	classes   int
	classOf   [256]uint16
	// rowSize is the class tuples a cycle can present to a cached state
	// (classes^stepBytes): the cells a dense row would hold, which the
	// default state cap is derived from (cellBudget), not what is stored.
	rowSize int
	// byWidth lists the classes by the bytes they hold, widest first: the
	// order in which accelerate tries them.
	byWidth []uint16
}

// NewPlan builds the stepping tables for a, its states in ID order.
// classOf/classes must be the certified symbol-class partition of the
// *byte* automaton a was transformed from (analysis.SymbolClasses); passing a
// finer partition is sound but wastes cells, a coarser one is unsound.
// NewPlan returns an error when a is not Supported or the partition is
// malformed.
func NewPlan(a *automata.UnitAutomaton, classOf [256]uint16, classes int) (*Plan, error) {
	if ok, reason := Supported(a); !ok {
		return nil, fmt.Errorf("dfa: %s", reason)
	}
	return PlanOver(nfa.NewPlan(a, nil), classOf, classes)
}

// PlanOver is NewPlan on an NFA plan that already exists — a configured
// machine's (core.Machine.Plan), so that the device core and the lazy DFA
// step one set of tables. Report rows come out in np's rank order.
func PlanOver(np *nfa.Plan, classOf [256]uint16, classes int) (*Plan, error) {
	if ok, reason := supported(np.SymbolUnits(), np.Rate()); !ok {
		return nil, fmt.Errorf("dfa: %s", reason)
	}
	if classes < 1 || classes > 256 {
		return nil, fmt.Errorf("dfa: symbol-class count %d out of range", classes)
	}
	for b, c := range classOf {
		if int(c) >= classes {
			return nil, fmt.Errorf("dfa: byte 0x%02x assigned to class %d of %d", b, c, classes)
		}
	}
	sb := np.Positions()
	var width [256]int
	byWidth := make([]uint16, classes)
	for b := range classOf {
		width[classOf[b]]++
	}
	for c := range byWidth {
		byWidth[c] = uint16(c)
	}
	slices.SortStableFunc(byWidth, func(a, b uint16) int { return width[b] - width[a] })
	return &Plan{nfa: np, stepBytes: sb, classes: classes, classOf: classOf, rowSize: pow(classes, sb), byWidth: byWidth}, nil
}

// step is one NFA cycle from src into dst (see nfa.Plan.Step) on the next
// StepBytes of input, of which the last pad are past its end, and returns
// dst's reporting states appended to reports; a nil src is cycle 0, where
// the start-of-data states join. Every cycle of a Supported automaton
// injects the unanchored starts, so the cycle number is moot.
func (p *Plan) step(dst, src []uint64, data []byte, pad int, c *nfa.Latches, reports []automata.StateID) []automata.StateID {
	_, reports = p.nfa.Step(dst, src, p.nfa.ByteInput(data, pad, 0), 0, src == nil, c, reports)
	return reports
}

// StepBytes returns the number of input bytes one cycle consumes.
func (p *Plan) StepBytes() int { return p.stepBytes }

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// cellBudget sizes the default state cap: as many states as dense rows of
// cellBudget cells would hold. It is not a measure of memory — two-level
// rows store a few percent of those cells — and the cap is not re-derived
// from what they do store: it decides which runs clear and fall back, so
// moving it is a cache-policy change with its own measurements.
const cellBudget = 1 << 22

// Config bounds a Runner's state cache.
type Config struct {
	// MaxStates caps the cached DFA states: constructing one more first
	// clears the cache. 0 derives the cap from the plan's row size,
	// cellBudget / (classes^StepBytes), clamped to [2, 32768].
	MaxStates int
	// BlowupRatio triggers the NFA fallback: once the cache has been
	// cleared and the number of states constructed exceeds BlowupRatio ×
	// cycles executed, the run stops caching and steps the NFA tables
	// directly for its remainder (default 0.25). The cache is thrashing at
	// that point — subset construction per cycle costs more than plain NFA
	// stepping. The states counted are the runner's lifetime
	// constructions, the cycles the current run's, on purpose: counting per
	// run was measured to cost more allocations than it saves (DESIGN.md
	// §4.16).
	BlowupRatio float64
}

// DefaultConfig returns the default cache bounds.
func DefaultConfig() Config {
	return Config{BlowupRatio: 0.25}
}

func (c Config) maxStates(rowSize int) int {
	if c.MaxStates > 0 {
		return max(c.MaxStates, 2)
	}
	return min(max(cellBudget/rowSize, 2), 32768)
}

func (c Config) blowupRatio() float64 {
	if c.BlowupRatio > 0 {
		return c.BlowupRatio
	}
	return 0.25
}

// Stats counts a Runner's cache behaviour since construction (Reset does
// not clear them: the cache persists across runs, so the counters describe
// its whole life). Run adds its hits once per exit.
type Stats struct {
	// States is the number of DFA states constructed (subset
	// constructions performed).
	States int64
	// Hits and Misses count cached-transition lookups.
	Hits   int64
	Misses int64
	// Evictions counts the states dropped by clearing the full cache.
	Evictions int64
	// Fallbacks counts runs that abandoned caching for plain NFA stepping
	// after the cache thrashed past Config.BlowupRatio.
	Fallbacks int64
}

// dstate is one cached DFA state: an NFA active set, its reporting states
// and the index of its escape table in Runner.tables, 0 while it has none.
// State 0 has none of them and stands for "none" everywhere an ID is
// stored: a fresh row is all zeros and needs no fill, and an empty cell
// names state 0, whose stop flag ends Run.
type dstate struct {
	set     []uint64
	reports []automata.StateID
	table   uint32
}

// escapeTable is an accelerated state's scan table: escape[b] is 1 when
// byte b's class lies outside the state's loop classes, so a cycle of
// bytes that are all 0 is a linked self-loop. strikes counts the scans that
// stopped on an escape byte within accelShortRun cycles, less one for each
// that ran longer, since the table was last built.
type escapeTable struct {
	escape  [256]byte
	strikes int32
}

// Demotion of accelerated states whose loops are short. A scan costs a call
// and a table walk that stepping a cycle does not, so a state that escapes
// within a few cycles of every entry (the http_batch rule set loops that
// way) runs slower accelerated. A scan that stops on an escape byte after
// fewer than accelShortRun skipped cycles is a strike, a longer one takes a
// strike back, and accelStrikes strikes clear the state's bit. The next
// self-loop linked from the state rebuilds its table with the bit set and no
// strikes: a young table escapes on every class not seen yet, and demoting
// it for good cost Dotstar 7x. A state links at most classes² cells, so
// its short scans stay bounded. Measured in DESIGN.md §4.16.
const (
	accelShortRun = 8
	accelStrikes  = 16
)

// Runner executes one input stream at a time against a Plan, memoizing
// cycle transitions in a DFA state cache that persists across Reset —
// repeated scans of one engine reuse the hot cache. A Runner is not safe
// for concurrent use; build one per goroutine (they share the Plan).
//
// The cache holds at most max states, inside a run as well as across runs:
// constructing one more first clears it, as Rust regex-automata's lazy DFA
// does, so len(states) <= max+1 at all times.
type Runner struct {
	p   *Plan
	cfg Config
	max int

	states []dstate
	// first holds a row of classes+1 cells per state at its premultiplied
	// ID id*(classes+1), not reached through states[id]. A cell is the next
	// premultiplied ID for a one-byte cycle, else the offset in cells of the
	// second-level row (of premultiplied IDs) for that class. The last cell
	// is the stop slot: 1 for state 0 and reporting states (intern), the
	// accelerated bit (even, non-zero) for a state with an escape table,
	// whose index it holds shifted left by one (accelerate), else 0.
	// Second-level rows are allocated on first use; offset 0 is a shared row
	// that stays all zeros (every cell names state 0).
	first, cells []uint32
	index        map[uint64][]uint32
	// tables holds the accelerated states' escape tables; entry 0 is unused,
	// so that no stop slot names it.
	tables []escapeTable

	// cur is the cached state the run sits in, or 0 when the run is in
	// direct-NFA mode (cycle 0, after a pad cycle, or after fallback);
	// active then holds the raw set. enabled is step's other buffer, and
	// latches its memo of the latches' successors.
	cur      uint32
	active   []uint64
	enabled  []uint64
	latches  nfa.Latches
	scratch  []automata.StateID
	cycle    int64
	fellBack bool
	// midStream marks a run started by ResetMidStream: its first cycle
	// steps from the (cleared) active set instead of seeding the anchored
	// starts.
	midStream bool

	stats Stats
	// skipped counts the cycles Run skipped on escape tables, kept out of
	// Stats: they are hits, counted there like any other, and a runner
	// driven by Step alone skips none.
	skipped int64
}

// NewRunner builds a runner with the given cache bounds.
func NewRunner(p *Plan, cfg Config) *Runner {
	r := &Runner{
		p:       p,
		cfg:     cfg,
		max:     cfg.maxStates(p.rowSize),
		index:   make(map[uint64][]uint32),
		active:  make([]uint64, p.nfa.Words()),
		enabled: make([]uint64, p.nfa.Words()),
		latches: p.nfa.NewLatches(),
	}
	r.emptyCache()
	return r
}

// emptyCache drops every state, releasing their sets and keeping the
// arenas' capacity. IDs start over, so the one ID held outside the cache,
// cur, is dropped with them.
func (r *Runner) emptyCache() {
	clear(r.states)
	r.states = append(r.states[:0], dstate{})
	r.first = append(append(r.first[:0], make([]uint32, r.p.classes)...), 1)
	r.cells = append(r.cells[:0], make([]uint32, r.p.classes)...)
	r.tables = append(r.tables[:0], escapeTable{})
	clear(r.index)
	r.cur = 0
}

// Plan returns the runner's shared plan.
func (r *Runner) Plan() *Plan { return r.p }

// Stats returns the cache counters accumulated over the runner's life.
func (r *Runner) Stats() Stats { return r.stats }

// Skipped returns the cycles Run has skipped on escape tables over the
// runner's life, a part of Stats().Hits.
func (r *Runner) Skipped() int64 { return r.skipped }

// FellBack reports whether the current (or last) run abandoned caching.
func (r *Runner) FellBack() bool { return r.fellBack }

// Cycle returns the cycles executed since the last Reset.
func (r *Runner) Cycle() int64 { return r.cycle }

// Reset prepares the runner for a new input stream. The DFA state cache is
// kept hot.
func (r *Runner) Reset() {
	r.cycle, r.cur, r.fellBack, r.midStream = 0, 0, false, false
}

// ResetMidStream is Reset for a stream that starts in the middle of the
// input, as a window's warm-up replay does: its first cycle is not the
// input's first, so it steps from an empty source set — the unanchored
// starts join, the start-of-data states do not. That is the contract of
// core.Machine.SuppressStartOfData; every later cycle is as after Reset.
func (r *Runner) ResetMidStream() {
	r.Reset()
	clear(r.active)
	r.midStream = true
}

// Step consumes one cycle: the next StepBytes() input bytes, of which the
// last pad positions are past the end of the input (the final cycle of an
// odd-length input; data holds only the real bytes). It returns the active
// reporting states of the cycle in ascending ID order. The slice is owned
// by the runner — read it before the next Step and do not mutate or retain
// it (cached states hand out their long-lived report rows).
//
// Step is the slow path for the cycles Run stops before: cycle 0, pad
// cycles, misses and the fallback (a hit, too, one cycle at a time).
//
// Order within a cycle is all the IDs promise. A cell is shared by every
// byte tuple of its symbol-class tuple and leads to the set the first of
// them built, which is event-equivalent to, not equal to, the set another
// tuple of the class would reach: the cycle's deduplicated (offset, origin)
// reports are exactly the oracle's as a set, but two of them may come out
// in the other order. Consumers that compare runs sort within a cycle.
func (r *Runner) Step(data []byte, pad int) []automata.StateID {
	r.cycle++
	curID, cell, c1 := r.cur, 0, 0
	if pad == 0 && curID != 0 {
		p := r.p
		cell = int(curID)*(p.classes+1) + int(p.classOf[data[0]])
		next := r.first[cell]
		if len(data) == 2 { // stepBytes: without pad, data is a whole cycle
			c1 = int(p.classOf[data[1]])
			next = r.cells[int(next)+c1]
		}
		if next /= uint32(p.classes + 1); next != 0 {
			r.stats.Hits++
			r.cur = next
			return r.states[next].reports
		}
		r.stats.Misses++
	}
	// Stepped cycles: a miss, time-dependent start injection (cycle 0), pad
	// semantics (final cycle), or fallback mode.
	var src []uint64
	switch {
	case curID != 0:
		src = r.states[curID].set
	case r.cycle > 1 || r.midStream:
		src = r.active
	}
	r.scratch = r.p.step(r.enabled, src, data, pad, &r.latches, r.scratch[:0])
	r.active, r.enabled = r.enabled, r.active
	if pad == 0 && !r.fellBack {
		// (Re-)enter cached mode: the reached set is a valid DFA state (its
		// outgoing transitions are time-invariant). The missed cell is
		// written after intern, which may grow the arenas, and only if the
		// source state survived it: cur still names it unless intern cleared
		// the cache, and the cell of a stale ID must not be written.
		if next := r.intern(r.active, r.scratch); next != 0 {
			if r.cur != 0 {
				r.link(cell, c1, next*uint32(r.p.classes+1))
			}
			r.cur = next
			return r.states[next].reports
		}
	}
	r.cur = 0
	// Direct-NFA mode — after a blowup, on the same set and with no restart.
	return r.scratch
}

// Run is the hit path. From the cached state it steps whole cycles of data on
// cached transitions and returns the cycles consumed: when the data runs out,
// after a cycle that lands on a reporting state (with its reports, as Step
// returns them), or before a cycle whose cell is empty, which the caller
// steps with Step, as every cycle outside a cached state. A cycle that lands
// on an accelerated state is followed by a scan for the first escape byte:
// the whole cycles before it loop on linked cells and are consumed without a
// lookup. Hits and cycles, skipped ones included, are counted once per call.
func (r *Runner) Run(data []byte) (n int, reports []automata.StateID) {
	if r.cur == 0 {
		return 0, nil
	}
	p, first, cells := r.p, r.first, r.cells
	sb, stop, stride := p.stepBytes, p.classes, p.classes+1
	cur := int(r.cur) * stride
	for ; len(data) >= sb; data, n = data[sb:], n+1 {
		next := int(first[cur+int(p.classOf[data[0]])])
		if sb == 2 {
			next = int(cells[next+int(p.classOf[data[1]])])
		}
		if v := first[next+stop]; v != 0 {
			if v&1 != 0 {
				if next != 0 {
					cur, reports, n = next, r.states[next/stride].reports, n+1
				}
				break
			}
			k := r.skip(next+stop, v, data[sb:])
			data, n = data[k*sb:], n+k
		}
		cur = next
	}
	r.stats.Hits, r.cycle = r.stats.Hits+int64(n), r.cycle+int64(n)
	r.cur = uint32(cur / stride)
	return n, reports
}

// skip scans data, the cycles after one that landed on the accelerated
// state whose stop slot first[slot] holds v, and returns the whole cycles
// before the first escape byte. A scan of accelShortRun cycles or more takes
// a strike back; a shorter one that stopped on an escape byte, not at the
// end of data, is a strike, and the last strike clears the state's bit.
func (r *Runner) skip(slot int, v uint32, data []byte) int {
	sb := r.p.stepBytes
	t := &r.tables[v>>1]
	whole := data[:len(data)/sb*sb]
	i := escapeIndex(&t.escape, whole)
	k := i / sb
	r.skipped += int64(k)
	switch {
	case k >= accelShortRun:
		t.strikes = max(t.strikes-1, 0)
	case i < len(whole):
		if t.strikes++; t.strikes >= accelStrikes {
			r.first[slot] = 0
		}
	}
	return k
}

// escapeIndex returns the index of the first byte of data that escape
// marks, or len(data). Eight bytes are tested per branch.
func escapeIndex(escape *[256]byte, data []byte) int {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		d := data[i : i+8 : i+8]
		if escape[d[0]]|escape[d[1]]|escape[d[2]]|escape[d[3]]|escape[d[4]]|escape[d[5]]|escape[d[6]]|escape[d[7]] != 0 {
			break
		}
	}
	for ; i < len(data) && escape[data[i]] == 0; i++ {
	}
	return i
}

// intern returns the cached state ID for set, whose reporting states are
// reports, constructing it as needed — after clearing the cache if it is
// full. It returns 0 when construction would thrash: the caller then falls
// back to direct NFA stepping for the rest of the run.
func (r *Runner) intern(set []uint64, reports []automata.StateID) uint32 {
	h := hashSet(set)
	for _, id := range r.index[h] {
		if slices.Equal(r.states[id].set, set) {
			return id
		}
	}
	if r.stats.Evictions > 0 && float64(r.stats.States) > r.cfg.blowupRatio()*float64(r.cycle) {
		r.fellBack = true
		r.stats.Fallbacks++
		return 0
	}
	if live := len(r.states) - 1; live >= r.max {
		r.stats.Evictions += int64(live)
		r.emptyCache()
	}
	id := uint32(len(r.states))
	r.states = append(r.states, dstate{set: slices.Clone(set), reports: append([]automata.StateID(nil), reports...)})
	r.first = append(append(r.first, make([]uint32, r.p.classes)...), uint32(min(len(reports), 1)))
	r.index[h] = append(r.index[h], id)
	r.stats.States++
	return id
}

// link records the premultiplied ID next as the transition of the
// first-level cell `cell` (a live state's) under second-byte class c1. A
// self-loop rebuilds the state's escape table.
func (r *Runner) link(cell, c1 int, next uint32) {
	if r.p.stepBytes == 1 {
		r.first[cell] = next
	} else {
		row := r.first[cell]
		if row == 0 {
			row = uint32(len(r.cells))
			r.cells = append(r.cells, make([]uint32, r.p.classes)...)
			r.first[cell] = row
		}
		r.cells[int(row)+c1] = next
	}
	if src := cell - cell%(r.p.classes+1); int(next) == src {
		r.accelerate(src)
	}
}

// accelerate rebuilds the escape table of the non-reporting state at
// premultiplied ID cur from its linked cells, and sets its accelerated bit.
// The loop classes Q are picked greedily, widest first: a class joins when
// every pair of it and the classes already in Q, both ways and with itself,
// is a linked self-loop (at one byte per cycle, when its cell is). Every
// cycle of bytes in Q is then a hit back into cur, and a byte escapes iff its
// class is outside Q. It costs at most classes² cell reads. Reporting states
// stop Run anyway and get no table.
func (r *Runner) accelerate(cur int) {
	p := r.p
	slot := cur + p.classes
	if r.first[slot]&1 != 0 {
		return
	}
	loops := func(c0, c1 uint16) bool {
		next := r.first[cur+int(c0)]
		if p.stepBytes == 2 {
			next = r.cells[int(next)+int(c1)]
		}
		return int(next) == cur
	}
	var inQ [256]bool
	var buf [256]uint16
	q := buf[:0]
	for _, c := range p.byWidth {
		if loops(c, c) && !slices.ContainsFunc(q, func(d uint16) bool { return !loops(c, d) || !loops(d, c) }) {
			q, inQ[c] = append(q, c), true
		}
	}
	if len(q) == 0 {
		return
	}
	st := &r.states[cur/(p.classes+1)]
	if st.table == 0 {
		st.table = uint32(len(r.tables))
		r.tables = append(r.tables, escapeTable{})
	}
	t := &r.tables[st.table]
	t.strikes = 0
	for b, c := range p.classOf {
		t.escape[b] = 1
		if inQ[c] {
			t.escape[b] = 0
		}
	}
	r.first[slot] = st.table << 1
}

// hashSet folds the set's words FNV-1a style, with a shift so that a high
// bit reaches the low ones before the next word — deterministic across
// processes (no seeding), and a bijection of the running hash per round, so
// sets that differ in one word never collide.
func hashSet(set []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range set {
		h = (h ^ v) * 1099511628211
		h ^= h >> 29
	}
	return h
}
