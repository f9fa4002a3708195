package prefilter

import (
	"bytes"
	"slices"
)

// shiftScanner is Wu–Manber multi-literal search with 2-byte blocks (Wu &
// Manber, TR 94-17). A window of m = shortest-literal bytes reads only the
// block that ends it and jumps by that block's shift, the least distance
// after which it can end some literal's m-prefix; at shift 0 the block's
// candidates are verified whole. Windows advance in start order, one visit
// per start, as the Scanner contract asks. Blocks hash into 4096 entries;
// a collision is sound, because an entry keeps the least shift of its
// blocks (sharing can only lower a shift) and every candidate is verified.
// Under fold each block is entered under all its case variants, so the
// scan hashes raw bytes.
type shiftScanner struct {
	lits  [][]byte
	m     int
	fold  bool
	shift [4096]uint8
	// The candidates of entry h are cand[off[h]:off[h+1]] (CSR form).
	off  [4097]uint16
	cand []int32
}

func blockHash(a, b byte) uint { return (uint(a)<<4 ^ uint(b)) & 0xfff }

// newShiftScanner needs literals of at least 2 bytes, canonical under fold,
// and fewer than 1<<14 of them (four uint16-counted buckets each at most).
func newShiftScanner(lits [][]byte, fold bool) *shiftScanner {
	m := shortest(lits)
	s := &shiftScanner{lits: lits, m: m, fold: fold}
	// The block ending at window offset j shifts m-1-j, an absent one m-1;
	// capping at 255 only lowers shifts.
	for h := range s.shift {
		s.shift[h] = uint8(min(m-1, 255))
	}
	var buckets [4096][]int32
	for i, l := range lits {
		for j := 1; j < m; j++ {
			for _, h := range s.hashes(l[j-1], l[j]) {
				s.shift[h] = min(s.shift[h], uint8(min(m-1-j, 255)))
			}
		}
		for _, h := range s.hashes(l[m-2], l[m-1]) {
			buckets[h] = append(buckets[h], int32(i))
		}
	}
	for h, b := range buckets {
		s.cand = append(s.cand, b...)
		s.off[h+1] = uint16(len(s.cand))
	}
	return s
}

// hashes returns the entries of block (a, b) and, under fold, of its case
// variants, each once: a literal listed twice in a bucket would emit twice.
func (s *shiftScanner) hashes(a, b byte) []uint {
	var hs []uint
	for _, x := range [2]byte{a, s.otherCase(a)} {
		for _, y := range [2]byte{b, s.otherCase(b)} {
			if h := blockHash(x, y); !slices.Contains(hs, h) {
				hs = append(hs, h)
			}
		}
	}
	return hs
}

// otherCase returns the uppercase of a canonical letter under fold, else c.
func (s *shiftScanner) otherCase(c byte) byte {
	if s.fold && c >= 'a' && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

func (s *shiftScanner) Strategy() string { return "shift" }

func (s *shiftScanner) Scan(data []byte, emit func(start, end int)) {
	n, m := len(data), s.m
	for end := s.skip(data, m-1); end < n; end = s.skip(data, end+1) {
		h, start := blockHash(data[end-1], data[end]), end+1-m
		for _, li := range s.cand[s.off[h]:s.off[h+1]] {
			l := s.lits[li]
			if e := start + len(l); e <= n && (s.fold && foldEqual(data[start:e], l) ||
				!s.fold && bytes.Equal(data[start:e], l)) {
				emit(start, e)
			}
		}
	}
}

// skip is the hot loop: the first window end at or after end whose block
// has shift 0, or a value at or past len(data).
func (s *shiftScanner) skip(data []byte, end int) int {
	for end < len(data) {
		sh := s.shift[blockHash(data[end-1], data[end])]
		if sh == 0 {
			break
		}
		end += int(sh)
	}
	return end
}
