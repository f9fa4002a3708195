// Package dfa is the lazy-DFA software backend: on-demand subset
// construction over a compiled unit automaton, with a bounded LRU cache of
// DFA states and byte-class-compressed, two-level transition rows.
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
// extra slot flags husks and reporting states, so a hit in Runner.Run is two
// dependent loads and one flag test (DESIGN.md §4.16 has the layouts that lost).
//
// Cycle 0 (start-of-data injection is time-dependent; ResetMidStream's first
// cycle steps from an empty set instead), any cycle containing
// pad units (pad semantics depend on where the input ends) and, once the
// cache thrashes past Config.BlowupRatio, the rest of the run are not served
// from the cache: Plan.step, the closure-free word-level NFA step that also
// builds every missed transition, steps them on flat tables. The successors
// of the self-looping states it steps from come from the runner's latch
// cache, which changes only when one of them comes on or goes off.
package dfa

import (
	"fmt"
	"math/bits"
	"slices"

	"sunder/internal/automata"
)

// Supported reports whether the lazy DFA can execute a, and if not, why.
func Supported(a *automata.UnitAutomaton) (bool, string) {
	if a.UnitBits != 4 || a.SymbolUnits != 2 {
		return false, "not a nibble automaton"
	}
	if a.Rate%a.SymbolUnits != 0 {
		return false, "rate below symbol units (cycles split bytes)"
	}
	return true, ""
}

// Plan holds the immutable stepping tables shared by every Runner built
// for one compiled automaton, all flat []uint64 so that one NFA step is a
// closure-free walk over words (layout and exactness: DESIGN.md §4.16).
// State sets are `words` uint64s, bit i%64 of word i/64 for device state i.
// Plans are read-only after NewPlan and safe to share across engines and
// goroutines.
type Plan struct {
	stepBytes int
	classes   int
	classOf   [256]uint16
	rowSize   int
	words     int

	// planes holds, for each byte position j, 256 byte planes and one pad
	// plane of `words` words each (see plane): byte plane b is the set of
	// states whose nibble positions 2j and 2j+1 accept b's high and low
	// nibble — the two nibble tables pre-ANDed — and the pad plane the set
	// with both positions don't-care (only those survive a Pad byte).
	planes []uint64

	// startAll seeds every cycle with the unanchored starts; startFirst adds
	// the start-of-data states and seeds cycle 0.
	startAll, startFirst, reportMask []uint64

	// succ[succOff[i]:succOff[i+1]] is state i's successor list, grouped
	// into one (destination word, bits) entry per word it reaches.
	succOff []int32
	succ    []succEntry
	// latch[w] is the self-looping states of source word w, and
	// latchSucc[latchOff[w]:latchOff[w+1]] the OR of all their successor
	// lists: the row a runner's latchCache ORs at once when a word's latches
	// all come on together. Self-loops are chosen because `.*`-style gap
	// states, once on, stay on, so their successors are worth remembering.
	latch     []uint64
	latchOff  []int32
	latchSucc []succEntry
	// covered[w] is the states of word w whose successors lie inside
	// startAll ∪ all of latchSucc — every latch, and on dense automata most
	// of the rest: with every latch on, that is the cache's union, and a
	// source set need not walk them.
	covered []uint64
}

// succEntry ORs mask into word `word` of the enabled set.
type succEntry struct {
	word int32
	mask uint64
}

// padPlane is the index of a position's pad plane, after its 256 byte planes.
const padPlane = 256

// NewPlan builds the stepping tables for a. classOf/classes must be the
// certified symbol-class partition of the *byte* automaton a was
// transformed from (analysis.SymbolClasses); passing a finer partition is
// sound but wastes cells, a coarser one is unsound. NewPlan returns an
// error when a is not Supported or the partition is malformed.
func NewPlan(a *automata.UnitAutomaton, classOf [256]uint16, classes int) (*Plan, error) {
	if ok, reason := Supported(a); !ok {
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
	n := a.NumStates()
	sb := a.Rate / a.SymbolUnits
	words := (n + 63) / 64
	p := &Plan{
		stepBytes:  sb,
		classes:    classes,
		classOf:    classOf,
		rowSize:    pow(classes, sb),
		words:      words,
		planes:     make([]uint64, sb*(padPlane+1)*words),
		startAll:   make([]uint64, words),
		startFirst: make([]uint64, words),
		reportMask: make([]uint64, words),
		succOff:    make([]int32, n+1),
		latch:      make([]uint64, words),
		latchOff:   make([]int32, words+1),
	}
	// add accumulates successor lists by destination word; flush appends
	// the accumulated entries to a CSR and empties the accumulator.
	acc := make([]uint64, words)
	var touched []int32
	add := func(succ []automata.StateID) {
		for _, t := range succ {
			if acc[t>>6] == 0 {
				touched = append(touched, int32(t>>6))
			}
			acc[t>>6] |= 1 << (t & 63)
		}
	}
	flush := func(dst []succEntry) []succEntry {
		for _, w := range touched {
			dst = append(dst, succEntry{w, acc[w]})
			acc[w] = 0
		}
		touched = touched[:0]
		return dst
	}
	all := automata.AllUnits(a.UnitBits)
	for i := range a.States {
		st := &a.States[i]
		w, bit := i>>6, uint64(1)<<(i&63)
		for j := 0; j < sb; j++ {
			// Word w of plane b is col[b*words]; set it for every byte
			// b = h<<4|l with h in hi and l in lo.
			hi, lo := st.Match[2*j], st.Match[2*j+1]
			col := p.planes[j*(padPlane+1)*words+w:]
			for hs := uint16(hi); hs != 0; hs &= hs - 1 {
				h := bits.TrailingZeros16(hs) << 4
				for ls := uint16(lo); ls != 0; ls &= ls - 1 {
					col[(h|bits.TrailingZeros16(ls))*words] |= bit
				}
			}
			if hi == all && lo == all {
				p.plane(j, padPlane)[w] |= bit
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			p.startAll[w] |= bit
			p.startFirst[w] |= bit
		case automata.StartOfData:
			p.startFirst[w] |= bit
		}
		if len(st.Reports) > 0 {
			p.reportMask[w] |= bit
		}
		add(st.Succ)
		p.succ = flush(p.succ)
		p.succOff[i+1] = int32(len(p.succ))
	}
	for w := 0; w < words; w++ {
		for i := w << 6; i < min(n, (w+1)<<6); i++ {
			if succ := a.States[i].Succ; slices.Contains(succ, automata.StateID(i)) {
				p.latch[w] |= 1 << (i & 63)
				add(succ)
			}
		}
		p.latchSucc = flush(p.latchSucc)
		p.latchOff[w+1] = int32(len(p.latchSucc))
	}
	satBase := slices.Clone(p.startAll)
	p.covered = make([]uint64, words)
	orEntries(satBase, p.latchSucc)
	outside := func(e succEntry) bool { return e.mask&^satBase[e.word] != 0 }
	for i := range a.States {
		if !slices.ContainsFunc(p.succ[p.succOff[i]:p.succOff[i+1]], outside) {
			p.covered[i>>6] |= 1 << (i & 63)
		}
	}
	return p, nil
}

// plane returns plane b (a byte value, or padPlane) of byte position j.
func (p *Plan) plane(j, b int) []uint64 {
	off := (j*(padPlane+1) + b) * p.words
	return p.planes[off : off+p.words : off+p.words]
}

// latchCache is a runner's memo of its latches' successors, which step keeps
// from cycle to cycle: on is the source set's active latches, union is
// startAll ∪ succ(on), and full says every latch is on (union is then
// startAll ∪ all of latchSucc). The union depends on on alone, so it is exact
// for any source set in any order — cycle 0, misses from cached states,
// mid-stream starts, the fallback — and across Reset (DESIGN.md §4.16).
type latchCache struct {
	on, union []uint64
	full      bool
}

func (p *Plan) newLatchCache() latchCache {
	none := !slices.ContainsFunc(p.latch, func(l uint64) bool { return l != 0 })
	return latchCache{make([]uint64, p.words), slices.Clone(p.startAll), none}
}

// sync brings c to on = src ∩ latch. Latches that came on add their
// successors — a word's latchSucc row when all of its latches came on at
// once — and a latch that went off rebuilds c from empty.
func (c *latchCache) sync(p *Plan, src []uint64) {
	for w, v := range src {
		if c.on[w]&^v != 0 {
			clear(c.on)
			copy(c.union, p.startAll)
			break
		}
	}
	c.full = true
	for w, v := range src {
		l := v & p.latch[w]
		if add := l &^ c.on[w]; add != 0 && add == p.latch[w] {
			orEntries(c.union, p.latchSucc[p.latchOff[w]:p.latchOff[w+1]])
		} else {
			for ; add != 0; add &= add - 1 {
				p.orSucc(c.union, w<<6|bits.TrailingZeros64(add))
			}
		}
		c.on[w] = l
		c.full = c.full && l == p.latch[w]
	}
}

// step computes one cycle transition on the NFA tables — the only NFA step
// in the package: cycle 0, pad cycles, misses and the post-blowup fallback
// all run it. The enabled set is the unanchored starts (every cycle begins
// at a symbol boundary — see Supported) plus the successors of src; a nil
// src is cycle 0: no predecessors, and the anchored starts join. c, synced
// to src's latches when they changed, supplies the starts and the latches'
// successors, so only src's other states are walked — none of the covered
// ones once every latch is on. The byte planes of the input (pad planes for
// the last pad positions) then filter it down to the next active set in dst,
// which must not alias src.
func (p *Plan) step(dst, src []uint64, data []byte, pad int, c *latchCache) {
	latch, on := p.latch[:len(src)], c.on[:len(src)] // no bounds checks
	for w, v := range src {
		if v&latch[w] != on[w] {
			c.sync(p, src)
			break
		}
	}
	skip := p.latch
	if c.full {
		skip = p.covered
	}
	if src == nil {
		copy(dst, p.startFirst)
	} else {
		copy(dst, c.union)
	}
	for w, v := range src {
		for v &^= skip[w]; v != 0; v &= v - 1 {
			p.orSucc(dst, w<<6|bits.TrailingZeros64(v))
		}
	}
	// Both positions in one pass; a one-byte cycle ANDs its plane twice.
	a, b := p.inputPlane(0, data, pad), p.inputPlane(p.stepBytes-1, data, pad)
	for w := range dst {
		dst[w] &= a[w] & b[w]
	}
}

// orSucc ORs state i's successors into dst.
func (p *Plan) orSucc(dst []uint64, i int) { orEntries(dst, p.succ[p.succOff[i]:p.succOff[i+1]]) }

func orEntries(dst []uint64, es []succEntry) {
	for _, e := range es {
		dst[e.word] |= e.mask
	}
}

// inputPlane returns the plane a cycle selects at byte position j: its
// byte's, or the pad plane for the last pad positions (data omits them).
func (p *Plan) inputPlane(j int, data []byte, pad int) []uint64 {
	if j < p.stepBytes-pad {
		return p.plane(j, int(data[j]))
	}
	return p.plane(j, padPlane)
}

// appendReports appends the reporting states of set to dst in ascending ID
// order — the one place a report row is built, for cached states (intern)
// and raw sets (Step) alike.
func (p *Plan) appendReports(dst []automata.StateID, set []uint64) []automata.StateID {
	for w, v := range set {
		for v &= p.reportMask[w]; v != 0; v &= v - 1 {
			dst = append(dst, automata.StateID(w<<6|bits.TrailingZeros64(v)))
		}
	}
	return dst
}

// StepBytes returns the number of input bytes one cycle consumes.
func (p *Plan) StepBytes() int { return p.stepBytes }

// Classes returns the symbol-class count: the width of a transition row.
func (p *Plan) Classes() int { return p.classes }

// RowSize returns the class tuples a cycle can present to a cached DFA state
// (Classes^StepBytes): the cells a dense row would hold, which is what the
// default state cap is derived from (Config.CellBudget), not what is stored.
func (p *Plan) RowSize() int { return p.rowSize }

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// Config bounds a Runner's state cache.
type Config struct {
	// MaxStates caps the live cached DFA states. 0 derives the cap from
	// CellBudget and the plan's row size, clamped to [2, 32768].
	MaxStates int
	// CellBudget sizes the state cap when MaxStates is 0: the cap is
	// CellBudget / Plan.RowSize states (default 1<<22), as many as dense rows
	// of that many cells would hold. It is not a measure of memory — two-level
	// rows store a few percent of those cells — and the cap is not re-derived
	// from what they do store: it decides which runs evict and fall back, so
	// moving it is a cache-policy change with its own measurements.
	CellBudget int
	// BlowupRatio triggers the NFA fallback: once any state has been
	// evicted and the number of states constructed exceeds
	// BlowupRatio × cycles executed, the run stops caching and steps the
	// NFA tables directly for its remainder (default 0.25). The cache is
	// thrashing at that point — subset construction per cycle costs more
	// than plain NFA stepping. The states counted are the runner's lifetime
	// constructions, the cycles the current run's, on purpose: counting per
	// run was measured to cost more allocations than it saves (DESIGN.md
	// §4.16).
	BlowupRatio float64
}

// DefaultConfig returns the default cache bounds.
func DefaultConfig() Config {
	return Config{CellBudget: 1 << 22, BlowupRatio: 0.25}
}

func (c Config) maxStates(rowSize int) int {
	if c.MaxStates > 0 {
		if c.MaxStates < 2 {
			return 2
		}
		return c.MaxStates
	}
	budget := c.CellBudget
	if budget <= 0 {
		budget = 1 << 22
	}
	n := budget / rowSize
	if n < 2 {
		n = 2
	}
	if n > 32768 {
		n = 32768
	}
	return n
}

func (c Config) blowupRatio() float64 {
	if c.BlowupRatio > 0 {
		return c.BlowupRatio
	}
	return 0.25
}

// Stats counts a Runner's cache behaviour since construction (Reset does
// not clear them: the cache persists across runs, so the counters describe
// its whole life). Run adds its hits once per exit, and refreshes recency
// only for the state it stops in.
type Stats struct {
	// States is the number of DFA states constructed (subset
	// constructions performed).
	States int64
	// Hits and Misses count cached-transition lookups.
	Hits   int64
	Misses int64
	// Evictions counts LRU evictions.
	Evictions int64
	// Fallbacks counts runs that abandoned caching for plain NFA stepping
	// after the cache thrashed past Config.BlowupRatio.
	Fallbacks int64
}

// dstate is one cached DFA state. IDs are never reused while the cache
// lives: evicted states stay in the slice as husks (set == nil, reports
// freed, second-level rows recycled, stop flag set), so a stale cell in a
// surviving row finds the husk and re-misses. State 0 is a permanent husk
// that stands for "none" everywhere an ID is stored: a fresh row is all
// zeros and needs no fill, an empty cell stops Run like any husk, and the
// recency list ends in 0.
type dstate struct {
	set     []uint64
	hash    uint64
	reports []automata.StateID
	prev    uint32 // recency list neighbours
	next    uint32
}

// Runner executes one input stream at a time against a Plan, memoizing
// cycle transitions in an LRU-bounded DFA state cache that persists across
// Reset — repeated scans of one engine reuse the hot cache. A Runner is
// not safe for concurrent use; build one per goroutine (they share the
// Plan).
//
// Memory is bounded inside a run as well as across runs: at most max states
// are live, and once more than 4*max husks have piled up the next
// construction rebuilds the cache empty (trim), so len(states) <= 5*max+2
// however long a run evicts.
type Runner struct {
	p   *Plan
	cfg Config
	max int

	states []dstate
	// first holds a row of classes+1 cells per state, husks included, at its
	// premultiplied ID id*(classes+1), not reached through states[id]. A cell
	// is the next premultiplied ID for a one-byte cycle, else the offset in
	// cells of the second-level row (of premultiplied IDs) for that class. The
	// last cell is the stop flag, set for husks (state 0, evict) and
	// reporting states (intern). Second-level rows are allocated on first
	// use, zeroed and freed when their state is evicted; offset 0 is a shared
	// row that stays all zeros (every cell names state 0, a husk).
	first, cells, free []uint32
	index              map[uint64][]uint32
	live               int
	// mru/lru end the doubly-linked recency list of live states (0: empty).
	mru, lru uint32

	// cur is the cached state the run sits in, or 0 when the run is in
	// direct-NFA mode (cycle 0, after a pad cycle, or after fallback);
	// active then holds the raw set. enabled is step's other buffer, and
	// latches its memo of the latches' successors.
	cur      uint32
	active   []uint64
	enabled  []uint64
	latches  latchCache
	scratch  []automata.StateID
	cycle    int64
	fellBack bool
	// midStream marks a run started by ResetMidStream: its first cycle
	// steps from the (cleared) active set instead of seeding the anchored
	// starts.
	midStream bool

	stats Stats
}

// NewRunner builds a runner with the given cache bounds.
func NewRunner(p *Plan, cfg Config) *Runner {
	r := &Runner{
		p:       p,
		cfg:     cfg,
		max:     cfg.maxStates(p.rowSize),
		active:  make([]uint64, p.words),
		enabled: make([]uint64, p.words),
		latches: p.newLatchCache(),
	}
	r.emptyCache()
	return r
}

// emptyCache drops every state. IDs start over, so the one ID held outside
// the cache, cur, is dropped with them.
func (r *Runner) emptyCache() {
	r.states = []dstate{{}}
	r.first, r.cells, r.free = append(make([]uint32, r.p.classes), 1), make([]uint32, r.p.classes), nil
	r.index = make(map[uint64][]uint32)
	r.live, r.mru, r.lru, r.cur = 0, 0, 0, 0
}

// trim rebuilds the cache empty once dead husks dominate it: the bound on
// what evictions leave behind (see Runner).
func (r *Runner) trim() {
	if len(r.states)-1-r.live > 4*r.max {
		r.emptyCache()
	}
}

// Plan returns the runner's shared plan.
func (r *Runner) Plan() *Plan { return r.p }

// Stats returns the cache counters accumulated over the runner's life.
func (r *Runner) Stats() Stats { return r.stats }

// FellBack reports whether the current (or last) run abandoned caching.
func (r *Runner) FellBack() bool { return r.fellBack }

// Cycle returns the cycles executed since the last Reset.
func (r *Runner) Cycle() int64 { return r.cycle }

// Reset prepares the runner for a new input stream. The DFA state cache is
// kept hot unless dead husks dominate it, in which case it is rebuilt
// empty (bounding the memory a past thrashing run left behind).
func (r *Runner) Reset() {
	r.cycle, r.cur, r.fellBack, r.midStream = 0, 0, false, false
	r.trim()
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
		if next /= uint32(p.classes + 1); r.states[next].set != nil {
			r.stats.Hits++
			r.cur = next
			r.touch(next)
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
	r.p.step(r.enabled, src, data, pad, &r.latches)
	r.active, r.enabled = r.enabled, r.active
	if pad == 0 && !r.fellBack {
		// (Re-)enter cached mode: the reached set is a valid DFA state (its
		// outgoing transitions are time-invariant). The missed cell is
		// written after intern, which may grow the arenas. The source state is
		// safe from eviction, being most recently used before this step, but
		// not from a rebuild: cur still names it unless intern emptied the
		// cache, and the cell of a stale ID must not be written.
		if next := r.intern(r.active); next != 0 {
			if r.cur != 0 {
				r.link(cell, c1, next*uint32(r.p.classes+1))
			}
			r.cur = next
			return r.states[next].reports
		}
	}
	r.cur = 0
	// Direct-NFA mode — after a blowup, on the same set and with no restart.
	r.scratch = r.p.appendReports(r.scratch[:0], r.active)
	return r.scratch
}

// Run is the hit path. From the cached state it steps whole cycles of data on
// cached transitions and returns the cycles consumed: when the data runs out,
// after a cycle that lands on a reporting state (with its reports, as Step
// returns them), or before a cycle whose cell is empty or names a husk, which
// the caller steps with Step, as every cycle outside a cached state. Hits and
// cycles are counted once per call; recency is refreshed for the stop state.
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
		if first[next+stop] != 0 {
			if st := &r.states[next/stride]; st.set != nil {
				cur, reports, n = next, st.reports, n+1
			}
			break
		}
		cur = next
	}
	r.stats.Hits, r.cycle = r.stats.Hits+int64(n), r.cycle+int64(n)
	r.cur = uint32(cur / stride)
	r.touch(r.cur)
	return n, reports
}

// intern returns the cached state ID for set, constructing (and possibly
// evicting) as needed. It returns 0 when construction would thrash: the
// caller then falls back to direct NFA stepping for the rest of the run.
func (r *Runner) intern(set []uint64) uint32 {
	h := hashSet(set)
	for _, id := range r.index[h] {
		if slices.Equal(r.states[id].set, set) {
			r.touch(id)
			return id
		}
	}
	if r.stats.Evictions > 0 && float64(r.stats.States) > r.cfg.blowupRatio()*float64(r.cycle) {
		r.fellBack = true
		r.stats.Fallbacks++
		return 0
	}
	if r.trim(); r.live >= r.max {
		r.evict()
	}
	id := uint32(len(r.states))
	r.states = append(r.states, dstate{set: slices.Clone(set), hash: h, reports: r.p.appendReports(nil, set)})
	r.first = append(append(r.first, make([]uint32, r.p.classes)...), uint32(min(len(r.states[id].reports), 1)))
	r.index[h] = append(r.index[h], id)
	r.live++
	r.stats.States++
	r.pushFront(id)
	return id
}

// link records the premultiplied ID next as the transition of the
// first-level cell `cell` (a live state's) under second-byte class c1.
func (r *Runner) link(cell, c1 int, next uint32) {
	if r.p.stepBytes == 1 {
		r.first[cell] = next
		return
	}
	row := r.first[cell]
	if row == 0 {
		if n := len(r.free); n > 0 {
			row, r.free = r.free[n-1], r.free[:n-1]
		} else {
			row = uint32(len(r.cells))
			r.cells = append(r.cells, make([]uint32, r.p.classes)...)
		}
		r.first[cell] = row
	}
	r.cells[int(row)+c1] = next
}

// evict retires the least-recently-used state, drops its index entry, so
// that the husk is not rediscovered, recycles its second-level rows and sets
// its stop flag. Its first-level row stays: a husk is never stepped from.
func (r *Runner) evict() {
	victim := r.lru
	if victim == 0 {
		return
	}
	r.unlink(victim)
	st := &r.states[victim]
	st.set, st.reports = nil, nil
	c, row0 := r.p.classes, int(victim)*(r.p.classes+1)
	r.first[row0+c] = 1
	if r.p.stepBytes == 2 {
		for _, row := range r.first[row0 : row0+c] {
			if row != 0 {
				clear(r.cells[row : int(row)+c])
				r.free = append(r.free, row)
			}
		}
	}
	bucket := r.index[st.hash]
	if i := slices.Index(bucket, victim); i >= 0 {
		bucket[i] = bucket[len(bucket)-1]
		bucket = bucket[:len(bucket)-1]
	}
	if len(bucket) == 0 {
		delete(r.index, st.hash)
	} else {
		r.index[st.hash] = bucket
	}
	r.live--
	r.stats.Evictions++
}

func (r *Runner) touch(id uint32) {
	if r.mru == id {
		return
	}
	r.unlink(id)
	r.pushFront(id)
}

func (r *Runner) pushFront(id uint32) {
	st := &r.states[id]
	st.prev = 0
	st.next = r.mru
	if r.mru != 0 {
		r.states[r.mru].prev = id
	}
	r.mru = id
	if r.lru == 0 {
		r.lru = id
	}
}

func (r *Runner) unlink(id uint32) {
	st := &r.states[id]
	if st.prev != 0 {
		r.states[st.prev].next = st.next
	} else if r.mru == id {
		r.mru = st.next
	}
	if st.next != 0 {
		r.states[st.next].prev = st.prev
	} else if r.lru == id {
		r.lru = st.prev
	}
	st.prev, st.next = 0, 0
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
