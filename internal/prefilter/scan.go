package prefilter

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// Scanner locates every occurrence of every literal in a byte stream.
//
// Scan calls emit(start, end) once per occurrence data[start:end] of each
// literal, in nondecreasing start order (ends at one start may arrive in any
// order when literals of different lengths share it). ScanUntil is Scan
// reporting to hits, and returns as soon as hits.Hit returns false.
// Scanners are stateless after construction and safe for concurrent calls.
type Scanner interface {
	Scan(data []byte, emit func(start, end int))
	ScanUntil(data []byte, hits Hits)
	// Strategy names the scanning algorithm ("memchr", "shift", "swar",
	// "aho-corasick") for Info() and telemetry.
	Strategy() string
}

// Hits receives the occurrences of a ScanUntil: Hit(start, end) is called
// once per occurrence data[start:end], and returns false to stop the scan.
// Taking an interface rather than a func lets a caller pass the pointer to
// its state without allocating a closure over it.
type Hits interface {
	Hit(start, end int) bool
}

// every is a Scan callback as Hits that never stops.
type every func(start, end int)

func (f every) Hit(start, end int) bool { f(start, end); return true }

// Selection constants over the set's size k and shortest length minLen,
// from BenchmarkScanners. shift jumps up to minLen-1 bytes per read, so it
// takes long literals and wide sets that leave something to skip; SWAR the
// other small sets; Aho-Corasick the rest (2-byte literals cannot skip).
const (
	swarMaxLiterals   = 8
	shiftMinLen       = 8
	shiftSingleMinLen = 16
	shiftWideMinLen   = 3
)

// shortest returns the length of the shortest literal in a non-empty set.
func shortest(lits [][]byte) int {
	return len(slices.MinFunc(lits, func(a, b []byte) int { return len(a) - len(b) }))
}

// NewScanner builds the best scanner for a literal set by the selection
// constants above. The set must be non-empty with non-empty literals
// (Extract guarantees both).
func NewScanner(lits [][]byte) Scanner {
	return NewScannerFold(lits, false)
}

// NewScannerFold is NewScanner for a case-folded extraction
// (Extraction.FoldCase): occurrences are located through FoldByte, so any
// case variant of a literal is found. Literals are canonicalized
// defensively; extraction already folds them.
func NewScannerFold(lits [][]byte, fold bool) Scanner {
	if len(lits) == 0 {
		panic("prefilter: NewScanner on empty literal set")
	}
	minLen := shortest(lits)
	if minLen == 0 {
		panic("prefilter: NewScanner on empty literal")
	}
	if fold {
		lits = FoldLiterals(lits)
	}
	switch k := len(lits); {
	case k == 1 && minLen < shiftSingleMinLen:
		return newMemchrScanner(lits[0], fold)
	case k < 1<<14 && (minLen >= shiftMinLen || k > swarMaxLiterals && minLen >= shiftWideMinLen):
		return newShiftScanner(lits, fold)
	case k <= swarMaxLiterals:
		return newSWARScanner(lits, fold)
	default:
		return newACScanner(lits, fold)
	}
}

const swarLo = 0x0101010101010101

// eqMask returns a word with the high bit of lane i set iff byte lane i of
// w equals the byte broadcast in bc. Exact for every lane (no borrow
// pollution across lanes, unlike the cheaper haszero trick): a lane of
// x = w^bc is zero iff neither its low 7 bits nor its high bit survive the
// saturating add below.
func eqMask(w, bc uint64) uint64 {
	x := w ^ bc
	y := (x & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f
	return ^(y | x | 0x7f7f7f7f7f7f7f7f)
}

// broadcast replicates b into every byte lane.
func broadcast(b byte) uint64 { return uint64(b) * swarLo }

// byteRarity ranks how selective a byte is as a skip anchor in typical
// text-like traffic: lower is more common. Purely a heuristic — any choice
// is correct, a rarer anchor just skips faster.
func byteRarity(b byte) int {
	switch {
	case b == ' ' || b == 'e' || b == 't' || b == 'a' || b == 'o' || b == 'i' || b == 'n':
		return 0
	case b >= 'a' && b <= 'z':
		return 1
	case (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9'):
		return 2
	case b >= 0x20 && b < 0x7f:
		return 3
	default:
		return 4
	}
}

// rareIndex picks the anchor position inside lit: the rarest byte, earliest
// on ties.
func rareIndex(lit []byte) int {
	best, bestRank := 0, -1
	for i, b := range lit {
		if r := byteRarity(b); r > bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

// memchrScanner finds one literal by SWAR-scanning for its rarest byte and
// verifying the full literal around each anchor hit. In fold mode the
// anchor is matched in both cases (a second broadcast word) and
// verification goes through the fold.
type memchrScanner struct {
	lit  []byte
	off  int // anchor offset within lit
	bc   uint64
	bc2  uint64 // broadcast of the anchor's other case; bc when none
	fold bool
}

func newMemchrScanner(lit []byte, fold bool) *memchrScanner {
	off := rareIndex(lit)
	s := &memchrScanner{lit: lit, off: off, bc: broadcast(lit[off]), fold: fold}
	s.bc2 = s.bc
	if a := lit[off]; fold && a >= 'a' && a <= 'z' {
		s.bc2 = broadcast(a - ('a' - 'A'))
	}
	return s
}

func (s *memchrScanner) Strategy() string { return "memchr" }

func (s *memchrScanner) match(data []byte, start int) bool {
	if s.fold {
		return foldEqual(data[start:start+len(s.lit)], s.lit)
	}
	return bytes.Equal(data[start:start+len(s.lit)], s.lit)
}

func (s *memchrScanner) Scan(data []byte, emit func(start, end int)) {
	s.ScanUntil(data, every(emit))
}

func (s *memchrScanner) ScanUntil(data []byte, hits Hits) {
	n, ln := len(data), len(s.lit)
	anchor := s.lit[s.off]
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		m := eqMask(w, s.bc)
		if s.bc2 != s.bc {
			m |= eqMask(w, s.bc2)
		}
		for m != 0 {
			lane := bits.TrailingZeros64(m) >> 3
			m &= m - 1
			start := i + lane - s.off
			if start >= 0 && start+ln <= n && s.match(data, start) && !hits.Hit(start, start+ln) {
				return
			}
		}
	}
	for ; i < n; i++ {
		b := data[i]
		if s.fold {
			b = FoldByte(b)
		}
		if b == anchor {
			start := i - s.off
			if start >= 0 && start+ln <= n && s.match(data, start) && !hits.Hit(start, start+ln) {
				return
			}
		}
	}
}

// swarScanner is the bucketed-fingerprint path for 2..8 literals: the
// fingerprint is each literal's lead byte, literals sharing a lead byte
// share a bucket, and one SWAR pass per distinct lead byte marks candidate
// lanes in each 8-byte word. Candidate positions are verified against their
// bucket's literals. In fold mode buckets are keyed by the folded lead byte
// and each alphabetic lead gets a broadcast per case.
type swarScanner struct {
	lits    [][]byte
	bcs     []uint64   // broadcast lead bytes, one per distinct raw lead
	buckets [256][]int // (folded) lead byte -> literal indices
	fold    bool
}

func newSWARScanner(lits [][]byte, fold bool) *swarScanner {
	s := &swarScanner{lits: lits, fold: fold}
	var seen [256]bool
	lead := func(b byte) {
		if !seen[b] {
			seen[b] = true
			s.bcs = append(s.bcs, broadcast(b))
		}
	}
	for i, l := range lits {
		b := l[0] // canonical under fold
		s.buckets[b] = append(s.buckets[b], i)
		lead(b)
		if fold && b >= 'a' && b <= 'z' {
			lead(b - ('a' - 'A'))
		}
	}
	return s
}

func (s *swarScanner) Strategy() string { return "swar" }

func (s *swarScanner) Scan(data []byte, emit func(start, end int)) {
	s.ScanUntil(data, every(emit))
}

func (s *swarScanner) ScanUntil(data []byte, hits Hits) {
	n := len(data)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		var m uint64
		for _, bc := range s.bcs {
			m |= eqMask(w, bc)
		}
		for m != 0 {
			lane := bits.TrailingZeros64(m) >> 3
			m &= m - 1
			if !s.verify(data, i+lane, hits) {
				return
			}
		}
	}
	for ; i < n; i++ {
		if len(s.buckets[s.key(data[i])]) > 0 && !s.verify(data, i, hits) {
			return
		}
	}
}

func (s *swarScanner) key(b byte) byte {
	if s.fold {
		return FoldByte(b)
	}
	return b
}

// verify reports the occurrences of pos's bucket's literals at pos to
// hits, and returns false once hits.Hit does.
func (s *swarScanner) verify(data []byte, pos int, hits Hits) bool {
	for _, li := range s.buckets[s.key(data[pos])] {
		l := s.lits[li]
		if e := pos + len(l); e <= len(data) && (s.fold && foldEqual(data[pos:e], l) ||
			!s.fold && bytes.Equal(data[pos:e], l)) && !hits.Hit(pos, e) {
			return false
		}
	}
	return true
}
