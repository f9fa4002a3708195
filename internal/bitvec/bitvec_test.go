package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 255, 256, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, v.Count())
		}
		if v.Any() {
			t.Errorf("New(%d).Any() = true", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	idx := []int{0, 1, 63, 64, 65, 128, 199}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", v.Count(), len(idx))
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != len(idx)-1 {
		t.Errorf("Count after clear = %d, want %d", v.Count(), len(idx)-1)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Set(10) },
		func() { v.Get(-1) },
		func() { v.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	v := New(70)
	v.SetAll()
	if v.Count() != 70 {
		t.Errorf("SetAll Count = %d, want 70", v.Count())
	}
	v.Reset()
	if v.Any() {
		t.Error("Any after Reset")
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(130)
	b := New(130)
	a.Set(3)
	a.Set(100)
	b.Set(100)
	b.Set(129)

	or := a.Clone()
	or.Or(b)
	if got := or.Bits(); len(got) != 3 || got[0] != 3 || got[1] != 100 || got[2] != 129 {
		t.Errorf("Or bits = %v", got)
	}

	and := a.Clone()
	and.And(b)
	if got := and.Bits(); len(got) != 1 || got[0] != 100 {
		t.Errorf("And bits = %v", got)
	}

	andnot := a.Clone()
	andnot.AndNot(b)
	if got := andnot.Bits(); len(got) != 1 || got[0] != 3 {
		t.Errorf("AndNot bits = %v", got)
	}

	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	c := New(130)
	c.Set(5)
	if a.Intersects(c) {
		t.Error("Intersects = true, want false")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("Or on mismatched lengths did not panic")
		}
	}()
	a.Or(b)
}

func TestEqualCloneCopy(t *testing.T) {
	a := New(99)
	a.Set(0)
	a.Set(98)
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not equal")
	}
	c.Set(50)
	if a.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if a.Equal(New(98)) {
		t.Error("different lengths compare equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i += 10 {
		v.Set(i)
	}
	n := 0
	v.ForEach(func(i int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("ForEach visited %d bits, want 3", n)
	}
}

func TestString(t *testing.T) {
	v := New(10)
	v.Set(1)
	v.Set(7)
	if s := v.String(); s != "{1,7}" {
		t.Errorf("String = %q", s)
	}
}

// Property: Bits() returns exactly the set positions, sorted ascending.
func TestQuickSetMembership(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		want := map[int]bool{}
		for i := 0; i < n/2; i++ {
			k := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v.Set(k)
				want[k] = true
			} else {
				v.Clear(k)
				delete(want, k)
			}
		}
		bits := v.Bits()
		if len(bits) != len(want) {
			return false
		}
		prev := -1
		for _, b := range bits {
			if !want[b] || b <= prev {
				return false
			}
			prev = b
		}
		return v.Count() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan on random vectors — (a&b) set bits equal bits set in
// both, (a|b) bits set in either.
func TestQuickBooleanOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (a.Get(i) && b.Get(i)) {
				return false
			}
			if or.Get(i) != (a.Get(i) || b.Get(i)) {
				return false
			}
		}
		return or.Count() >= and.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
