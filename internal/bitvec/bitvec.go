// Package bitvec provides dense bit vectors used throughout the Sunder
// simulator: state vectors, match vectors, symbol sets, and crossbar rows.
//
// Two flavours are provided. Vector is an arbitrary-length bitset backed by
// a []uint64 and sized at construction. V256 is a fixed 256-bit vector that
// maps one-to-one onto a row or column group of a 256-wide SRAM subarray; it
// is a value type (an array, not a slice) so it can be copied and compared
// cheaply, which the architectural simulator relies on.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-capacity bitset. The zero value is an empty vector of
// length zero; use New to create one with capacity.
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a zeroed Vector holding n bits.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// check panics if i is out of range.
func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is 1.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// Reset sets every bit to 0.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim clears any bits beyond Len in the last word so that population
// counts and comparisons stay exact.
func (v *Vector) trim() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) % wordBits)) - 1
	}
}

// Count returns the number of 1 bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets v to v | o. The vectors must have equal length.
func (v *Vector) Or(o *Vector) {
	v.sameLen(o)
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// And sets v to v & o. The vectors must have equal length.
func (v *Vector) And(o *Vector) {
	v.sameLen(o)
	for i, w := range o.words {
		v.words[i] &= w
	}
}

// AndNot sets v to v &^ o. The vectors must have equal length.
func (v *Vector) AndNot(o *Vector) {
	v.sameLen(o)
	for i, w := range o.words {
		v.words[i] &^= w
	}
}

// Equal reports whether v and o hold identical bits. Vectors of different
// lengths are never equal.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// Intersects reports whether v & o has any bit set, without allocating.
func (v *Vector) Intersects(o *Vector) bool {
	v.sameLen(o)
	for i, w := range o.words {
		if v.words[i]&w != 0 {
			return true
		}
	}
	return false
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// ForEach calls f with the index of every set bit in ascending order.
// It stops early if f returns false.
func (v *Vector) ForEach(f func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Bits returns the indices of all set bits in ascending order.
func (v *Vector) Bits() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// String renders the vector as {i,j,...} for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	v.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
