// Package prefilter implements the literal-prefilter fast path: compile-time
// extraction of *required literals* from a rule set and a multi-literal
// scanner that locates their occurrences in raw input, so the simulated
// device only has to execute the candidate windows around those occurrences
// (plus the dependence-window warm-up sched already computes) instead of
// every byte of the stream.
//
// Soundness rests on one property: a literal set is *required* when every
// string matched by any rule in the set contains at least one of the
// literals as a substring. Then
//
//   - an input containing no occurrence of any literal cannot match at all
//     (valid even for cyclic automata with unbounded dependence windows), and
//   - for acyclic automata, a match ending at byte p implies a literal
//     occurrence [q, e) with e-1 <= p <= q + maxMatchBytes - 1, where
//     maxMatchBytes is derived from the automaton's bounded dependence
//     window — so simulating only those end-byte windows (with D+1 cycles of
//     warm-up replay before each) reproduces the sequential report stream
//     byte for byte.
//
// Extraction is conservative: when any reachable reporting state admits
// matches without a usable literal (a wide character class, too many
// variants, a literal below the minimum length), Extract returns a "no
// filter" verdict and the engine scans unfiltered.
package prefilter

import (
	"bytes"
	"math/bits"
	"sort"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

// Config bounds literal extraction. The caps trade scanner selectivity
// against extraction cost; every cap is sound to hit (a truncated literal is
// still required — any substring of a required literal is required).
type Config struct {
	// MaxAlt is the maximum number of distinct byte values tolerated at one
	// literal position before the position (and everything before it) is
	// abandoned.
	MaxAlt int
	// MaxVariants caps the cross-product expansion of one reporting state's
	// suffix (case folds, small classes).
	MaxVariants int
	// MaxLen / MinLen bound individual literal lengths. A best literal
	// shorter than MinLen yields the "no filter" verdict: one- or zero-byte
	// literals hit constantly and filter nothing.
	MaxLen int
	MinLen int
	// MaxLiterals caps the whole rule set's literal count.
	MaxLiterals int
	// MaxFrontier caps the backward-walk state frontier per position.
	MaxFrontier int
}

// DefaultConfig returns the extraction caps used by the engine.
func DefaultConfig() Config {
	return Config{MaxAlt: 4, MaxVariants: 16, MaxLen: 24, MinLen: 2, MaxLiterals: 1024, MaxFrontier: 64}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxAlt <= 0 {
		c.MaxAlt = d.MaxAlt
	}
	if c.MaxVariants <= 0 {
		c.MaxVariants = d.MaxVariants
	}
	if c.MaxLen <= 0 {
		c.MaxLen = d.MaxLen
	}
	if c.MinLen <= 0 {
		c.MinLen = d.MinLen
	}
	if c.MaxLiterals <= 0 {
		c.MaxLiterals = d.MaxLiterals
	}
	if c.MaxFrontier <= 0 {
		c.MaxFrontier = d.MaxFrontier
	}
	return c
}

// Extraction is the result of required-literal extraction over a rule set.
type Extraction struct {
	// Literals is the required set: every possible match contains at least
	// one element as a substring. Deduplicated and substring-minimized (no
	// element contains another), sorted.
	Literals [][]byte
	// MaxLen / MinLen are the extreme literal lengths in the set.
	MaxLen int
	MinLen int
	// OK is false when no sound filter exists; Reason says why.
	OK     bool
	Reason string
	// FoldCase marks a canonical (ASCII-lowercase) literal set: an
	// occurrence is any byte string whose FoldByte folding equals a
	// literal, and scanners must be built fold-aware (NewScannerFold).
	// Extraction prefers the folded set only when it is more selective
	// (longer literals survive the variant cap) than the exact one.
	FoldCase bool
}

// Extract derives a required literal set from a byte automaton by walking
// backward from every reachable reporting state: the walk's frontier at
// depth j from the match end contains every state a match path can occupy
// there, so the union of the frontier's symbol sets is the exact set of
// bytes the match can carry at that position. The walk stops at a start
// state (shorter matches would otherwise lack the position) or at a cap;
// the cross product of the collected positions is a required suffix set for
// that reporting state, and the union across reporting states is required
// for the rule set.
func Extract(a *automata.Automaton, cfg Config) Extraction {
	cfg = cfg.withDefaults()
	exact := extract(a, cfg, false)
	folded := extract(a, cfg, true)
	return pickExtraction(exact, folded)
}

// pickExtraction chooses between the exact and the case-folded extraction
// of one rule set: the more selective set wins (longer minimum literal,
// then fewer literals), with the exact set preferred on a full tie — a
// rule set without case classes folds to itself, and the exact scanner is
// marginally cheaper per byte.
func pickExtraction(exact, folded Extraction) Extraction {
	switch {
	case exact.OK && folded.OK:
		if folded.MinLen > exact.MinLen ||
			(folded.MinLen == exact.MinLen && len(folded.Literals) < len(exact.Literals)) {
			return folded
		}
		return exact
	case folded.OK:
		return folded
	default:
		return exact
	}
}

// extract is one extraction pass; with fold set, every position's byte
// choices are folded to canonical case before the variant caps apply, so
// case classes cost one variant instead of two per letter.
func extract(a *automata.Automaton, cfg Config, fold bool) Extraction {
	n := len(a.States)

	// Reachability from start states: unreachable report states never fire
	// and impose no literals.
	reach := make([]bool, n)
	var stack []automata.StateID
	for s := range a.States {
		if a.States[s].Start != automata.StartNone {
			reach[s] = true
			stack = append(stack, automata.StateID(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.States[s].Succ {
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}

	preds := make([][]automata.StateID, n)
	for s := range a.States {
		for _, t := range a.States[s].Succ {
			preds[t] = append(preds[t], automata.StateID(s))
		}
	}

	var lits [][]byte
	any := false
	for r := range a.States {
		if !a.States[r].Report || !reach[r] {
			continue
		}
		any = true
		positions, live := suffixPositions(a, preds, automata.StateID(r), cfg, fold)
		if !live {
			// This report state can never fire (dead symbol set on every
			// path); it imposes no literal.
			continue
		}
		if len(positions) < cfg.MinLen {
			return Extraction{Reason: "report state admits matches without a usable literal (wide class or short suffix)"}
		}
		lits = appendVariants(lits, positions)
		if len(lits) > 4*cfg.MaxLiterals {
			return Extraction{Reason: "literal set too large"}
		}
	}
	if !any {
		return Extraction{Reason: "no reachable reporting states"}
	}
	if len(lits) == 0 {
		// Every report state was dead: no input can match, but rather than
		// special-casing a "skip everything" filter for a degenerate rule
		// set, scan unfiltered.
		return Extraction{Reason: "no live reporting states"}
	}
	return finishExtraction(lits, cfg, fold)
}

// finishExtraction minimizes, validates and packages a raw literal list.
func finishExtraction(lits [][]byte, cfg Config, fold bool) Extraction {
	lits = Minimize(lits)
	if len(lits) > cfg.MaxLiterals {
		return Extraction{Reason: "literal set too large"}
	}
	ex := Extraction{Literals: lits, OK: true, FoldCase: fold, MinLen: len(lits[0]), MaxLen: len(lits[0])}
	for _, l := range lits {
		if len(l) < ex.MinLen {
			ex.MinLen = len(l)
		}
		if len(l) > ex.MaxLen {
			ex.MaxLen = len(l)
		}
	}
	if ex.MinLen < cfg.MinLen {
		return Extraction{Reason: "best literal below minimum length"}
	}
	return ex
}

// FromLiterals packages an externally extracted literal set (e.g. the AST
// extractor in internal/regex) under the same caps and minimization as
// Extract.
func FromLiterals(lits [][]byte, cfg Config) Extraction {
	return FromLiteralsFold(lits, false, cfg)
}

// FromLiteralsFold is FromLiterals for a set extracted under case folding:
// the literals are canonicalized (folded) before minimization and the
// extraction is marked FoldCase so the engine builds a fold-aware scanner.
func FromLiteralsFold(lits [][]byte, fold bool, cfg Config) Extraction {
	cfg = cfg.withDefaults()
	if len(lits) == 0 {
		return Extraction{Reason: "no literals"}
	}
	if fold {
		lits = FoldLiterals(lits)
	}
	return finishExtraction(lits, cfg, fold)
}

// upperBits marks 'A'-'Z' in the second word of a bitvec.V256.
const upperBits = (1<<26 - 1) << ('A' - 64)

// suffixPositions walks backward from report state r. positions[j] holds
// the sorted byte values a match can carry at depth j from its end; live is
// false when the state cannot fire at all. The walk guarantees that when
// positions has length L, every match path ending at r is at least L bytes
// long (no start state appeared in a frontier before depth L-1), so the
// cross product over positions is a required suffix set.
func suffixPositions(a *automata.Automaton, preds [][]automata.StateID, r automata.StateID, cfg Config, fold bool) (positions [][]byte, live bool) {
	frontier := []automata.StateID{r}
	variants := 1
	for {
		var u bitvec.V256
		for _, s := range frontier {
			for i, w := range a.States[s].Match {
				u[i] |= w
			}
		}
		if fold {
			// Both cases of a letter collapse into one canonical choice
			// before the caps apply.
			u[1] = u[1]&^upperBits | (u[1]&upperBits)<<('a'-'A')
		}
		cnt := u.Count()
		if cnt == 0 {
			// No symbol activates any frontier state: every path is dead.
			// At depth 0 the report state itself never fires; deeper, no
			// path of this length exists and no start has been seen, so no
			// path of any length exists either.
			return nil, false
		}
		if cnt > cfg.MaxAlt || variants*cnt > cfg.MaxVariants {
			return positions, true
		}
		choices := make([]byte, 0, cnt)
		for i, w := range u {
			for ; w != 0; w &= w - 1 {
				choices = append(choices, byte(i<<6|bits.TrailingZeros64(w)))
			}
		}
		positions = append(positions, choices)
		variants *= cnt
		for _, s := range frontier {
			if a.States[s].Start != automata.StartNone {
				// A match can begin here: the literal is complete (the
				// shortest match is exactly the positions collected).
				return positions, true
			}
		}
		if len(positions) >= cfg.MaxLen {
			return positions, true
		}
		next := frontier[:0:0]
		seen := map[automata.StateID]bool{}
		for _, s := range frontier {
			for _, p := range preds[s] {
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		if len(next) == 0 {
			// No predecessors and no start state: unreachable in practice.
			return nil, false
		}
		if len(next) > cfg.MaxFrontier {
			return positions, true
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}
}

// appendVariants expands the right-to-left position choices into literal
// strings (cross product) and appends them to lits.
func appendVariants(lits [][]byte, positions [][]byte) [][]byte {
	L := len(positions)
	cur := make([]byte, L)
	var rec func(j int)
	rec = func(j int) {
		if j < 0 {
			lits = append(lits, append([]byte(nil), cur...))
			return
		}
		// positions[j] is depth j from the end: it lands at index L-1-j.
		for _, b := range positions[j] {
			cur[L-1-j] = b
			rec(j - 1)
		}
	}
	rec(L - 1)
	return lits
}

// Minimize deduplicates a literal set and drops every literal that contains
// another as a substring: an occurrence of the longer one always contains an
// occurrence of the shorter, so the shorter alone preserves the required
// property while shrinking the scanner.
func Minimize(lits [][]byte) [][]byte {
	sorted := make([][]byte, len(lits))
	copy(sorted, lits)
	sort.Slice(sorted, func(i, j int) bool {
		if len(sorted[i]) != len(sorted[j]) {
			return len(sorted[i]) < len(sorted[j])
		}
		return bytes.Compare(sorted[i], sorted[j]) < 0
	})
	var out [][]byte
	for _, l := range sorted {
		keep := true
		for _, k := range out {
			if bytes.Contains(l, k) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, l)
		}
	}
	return out
}

// TailHit reports whether an occurrence of some literal could overlap the
// padBytes of rate padding appended after data: pad units satisfy "don't
// care" positions, so a literal may complete inside the pad with only a
// proper prefix realized in the data. Engines must treat such a tail as a
// candidate (the pad tail can carry phantom reports that the unfiltered
// engine counts in Reports/ReportCycles); without it, a no-hit skip would
// silently drop them.
func TailHit(data []byte, lits [][]byte, padBytes int) bool {
	return TailHitFold(data, lits, padBytes, false)
}

// TailHitFold is TailHit for a case-folded (canonical) literal set: the
// realized prefix is compared through the fold.
func TailHitFold(data []byte, lits [][]byte, padBytes int, fold bool) bool {
	if padBytes <= 0 {
		return false
	}
	for _, l := range lits {
		for over := 1; over <= padBytes && over <= len(l); over++ {
			k := len(l) - over // bytes that must be realized in data
			if k > len(data) {
				continue
			}
			if fold {
				if foldHasSuffix(data, l[:k]) {
					return true
				}
			} else if bytes.HasSuffix(data, l[:k]) {
				return true
			}
		}
	}
	return false
}
