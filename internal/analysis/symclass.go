package analysis

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"sunder/internal/automata"
)

// SymbolClassCert is the alphabet-compression certificate computed on the
// byte automaton *before* nibble decomposition: a partition of the 256
// input symbols into equivalence classes with identical columns in the
// match matrix (two bytes are equivalent iff every state accepts both or
// neither). Identical columns need only be stored once — the class count
// is the automaton's effective alphabet size, and the per-class witness
// symbols make the partition machine-checkable: CheckSymbolClasses
// verifies every symbol's column against its witness and that witnesses
// are pairwise distinguishable, so the class count is provably maximal.
type SymbolClassCert struct {
	// Class maps each byte value to its equivalence class.
	Class [256]uint16
	// Witness holds one representative byte per class (the class's lowest
	// member, by construction).
	Witness []byte
}

// Count returns the number of symbol-equivalence classes.
func (c *SymbolClassCert) Count() int { return len(c.Witness) }

// SymbolClasses partitions the byte alphabet by match-matrix column
// equality over the automaton's states.
func SymbolClasses(nfa *automata.Automaton) *SymbolClassCert {
	cert := &SymbolClassCert{}
	// cols[b*nb:(b+1)*nb] is byte b's column, one bit per state, filled
	// by one transposing pass over each state's set match bits.
	nb := (len(nfa.States) + 7) / 8
	cols := make([]byte, 256*nb)
	for s := range nfa.States {
		for w, word := range nfa.States[s].Match {
			for ; word != 0; word &= word - 1 {
				b := w*64 + bits.TrailingZeros64(word)
				cols[b*nb+s/8] |= 1 << uint(s%8)
			}
		}
	}
	keys := make(map[string]uint16)
	for b := 0; b < 256; b++ {
		col := cols[b*nb : (b+1)*nb]
		id, ok := keys[string(col)]
		if !ok {
			id = uint16(len(cert.Witness))
			keys[string(col)] = id
			cert.Witness = append(cert.Witness, byte(b))
		}
		cert.Class[b] = id
	}
	return cert
}

// CheckSymbolClasses verifies a symbol-class certificate against the byte
// automaton: every class is inhabited by its witness, every byte's match
// column equals its witness's column state by state, and witness columns
// are pairwise distinct (so the partition is not artificially fine and
// the class count is the true effective alphabet size).
func CheckSymbolClasses(nfa *automata.Automaton, cert *SymbolClassCert) error {
	if cert == nil {
		return fmt.Errorf("symclass: nil certificate")
	}
	nc := len(cert.Witness)
	if nc == 0 || nc > 256 {
		return fmt.Errorf("symclass: class count %d out of range", nc)
	}
	for c, w := range cert.Witness {
		if int(cert.Class[w]) != c {
			return fmt.Errorf("symclass: witness 0x%02x of class %d is assigned to class %d", w, c, cert.Class[w])
		}
	}
	// Match-matrix columns, extracted word-wise: a 64×64 bit transpose
	// per block of 64 states and match word turns states' rows into 64
	// column slices at once. cols[b*nw+k] holds states 64k..64k+63 of
	// byte b's column.
	nw := (len(nfa.States) + 63) / 64
	cols := make([]uint64, 256*nw)
	var blk [64]uint64
	for k := 0; k < nw; k++ {
		for w := 0; w < 4; w++ {
			for r := range blk {
				blk[r] = 0
				if s := k*64 + r; s < len(nfa.States) {
					blk[r] = nfa.States[s].Match[w]
				}
			}
			transpose64(&blk)
			for i, v := range blk {
				cols[(w*64+i)*nw+k] = v
			}
		}
	}
	column := func(b int) []uint64 { return cols[b*nw : (b+1)*nw] }
	for b := 0; b < 256; b++ {
		c := cert.Class[b]
		if int(c) >= nc {
			return fmt.Errorf("symclass: byte 0x%02x assigned to class %d, only %d classes", b, c, nc)
		}
		if !slices.Equal(column(b), column(int(cert.Witness[c]))) {
			return fmt.Errorf("symclass: some state distinguishes byte 0x%02x from its class witness 0x%02x", b, cert.Witness[c])
		}
	}
	// Maximality: no two witnesses may share a column. Sorted by column,
	// equal columns are adjacent.
	order := make([]int, nc)
	for c := range order {
		order[c] = c
	}
	wcol := func(c int) []uint64 { return column(int(cert.Witness[c])) }
	slices.SortFunc(order, func(x, y int) int { return cmp.Or(slices.Compare(wcol(x), wcol(y)), cmp.Compare(x, y)) })
	for i := 1; i < nc; i++ {
		if prev, c := order[i-1], order[i]; slices.Equal(wcol(prev), wcol(c)) {
			return fmt.Errorf("symclass: classes %d and %d are indistinguishable (witnesses 0x%02x, 0x%02x)",
				prev, c, cert.Witness[prev], cert.Witness[c])
		}
	}
	return nil
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of a[i]
// becomes bit i of a[j]. Each round swaps the off-diagonal j×j blocks of
// every 2j×2j block (Hacker's Delight, §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		m ^= m << (j >> 1)
	}
}
