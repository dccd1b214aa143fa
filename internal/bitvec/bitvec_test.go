package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
	if v.Any() {
		t.Error("Any() = true for zero vector")
	}
	if v.OnesCount() != 0 {
		t.Errorf("OnesCount = %d, want 0", v.OnesCount())
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(70)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(69, true)
	for _, i := range []int{0, 63, 64, 69} {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Errorf("OnesCount = %d, want 4", v.OnesCount())
	}
	v.Flip(63)
	if v.Get(63) {
		t.Error("Flip did not clear bit 63")
	}
	v.Flip(63)
	if !v.Get(63) {
		t.Error("double Flip did not restore bit 63")
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Error("Set(false) did not clear bit 64")
	}
}

func TestClearAndClone(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i += 3 {
		v.Set(i, true)
	}
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone not equal to original")
	}
	v.Clear()
	if v.Any() {
		t.Error("Clear left bits set")
	}
	if !c.Any() {
		t.Error("Clear mutated the clone")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(65), New(65)
	a.Set(64, true)
	b.CopyFrom(a)
	if !b.Get(64) {
		t.Error("CopyFrom did not copy bit 64")
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom with mismatched lengths did not panic")
		}
	}()
	New(3).CopyFrom(New(4))
}

func TestUintRoundTrip(t *testing.T) {
	f := func(x uint16, off uint8) bool {
		offset := int(off % 40)
		v := New(offset + 16)
		v.SetUint(offset, 16, uint64(x))
		return v.Uint(offset, 16) == uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintPartialWidth(t *testing.T) {
	v := New(10)
	v.SetUint(2, 4, 0b1111_1010) // only low 4 bits (1010) should land
	if got := v.Uint(2, 4); got != 0b1010 {
		t.Errorf("Uint = %b, want 1010", got)
	}
	if v.Get(6) || v.Get(1) {
		t.Error("SetUint wrote outside its window")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){
		func() { v.Get(8) },
		func() { v.Get(-1) },
		func() { v.Set(8, true) },
		func() { v.Flip(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Error("vectors of different length reported equal")
	}
}

func TestString(t *testing.T) {
	v := New(6)
	v.Set(0, true)
	v.Set(5, true)
	if got := v.String(); got != "100001" {
		t.Errorf("String = %q, want 100001", got)
	}
}

func TestOnesCountRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(500)
	want := 0
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		idx := rng.Intn(500)
		if !seen[idx] {
			seen[idx] = true
			want++
			v.Set(idx, true)
		}
	}
	if got := v.OnesCount(); got != want {
		t.Errorf("OnesCount = %d, want %d", got, want)
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestWordAccess(t *testing.T) {
	v := New(130)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(129, true)
	if v.NumWords() != 3 {
		t.Fatalf("NumWords = %d, want 3", v.NumWords())
	}
	if w := v.Word(0); w != 1|1<<63 {
		t.Errorf("Word(0) = %#x, want %#x", w, uint64(1|1<<63))
	}
	if w := v.Word(1); w != 1 {
		t.Errorf("Word(1) = %#x, want 1", w)
	}
	if w := v.Word(2); w != 1<<1 {
		t.Errorf("Word(2) = %#x, want %#x", w, uint64(1<<1))
	}
	defer func() {
		if recover() == nil {
			t.Error("Word(3) out of range did not panic")
		}
	}()
	v.Word(3)
}

func TestAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := New(300), New(300)
	want := 0
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(2) == 1, rng.Intn(2) == 1
		a.Set(i, x)
		b.Set(i, y)
		if x && y {
			want++
		}
	}
	if got := a.AndCount(b); got != want {
		t.Errorf("AndCount = %d, want %d", got, want)
	}
	if got := b.AndCount(a); got != want {
		t.Errorf("AndCount not symmetric: %d vs %d", got, want)
	}
}

func TestAndCountLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AndCount length mismatch did not panic")
		}
	}()
	New(10).AndCount(New(11))
}

func TestIntersectsAgainstAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		// Sparse fills so disjoint pairs actually occur.
		for i := 0; i < n; i++ {
			a.Set(i, rng.Intn(8) == 0)
			b.Set(i, rng.Intn(8) == 0)
		}
		if got, want := a.Intersects(b), a.AndCount(b) > 0; got != want {
			t.Fatalf("n=%d: Intersects=%v, AndCount>0 says %v", n, got, want)
		}
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("n=%d: Intersects not symmetric", n)
		}
	}
	if New(70).Intersects(New(70)) {
		t.Error("two zero vectors intersect")
	}
}

func TestIntersectsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intersects length mismatch did not panic")
		}
	}()
	New(10).Intersects(New(11))
}

// randomPair returns two random vectors of length n plus their []bool
// models, for word-kernel cross-checks.
func randomPair(n int, rng *rand.Rand) (a, b *Vector, ma, mb []bool) {
	a, b = New(n), New(n)
	ma, mb = make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i, true)
			ma[i] = true
		}
		if rng.Intn(2) == 0 {
			b.Set(i, true)
			mb[i] = true
		}
	}
	return a, b, ma, mb
}

func TestInPlaceKernelsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 7, 63, 64, 65, 100, 128, 130} {
		for trial := 0; trial < 20; trial++ {
			a, b, ma, mb := randomPair(n, rng)
			and, or, andNot := a.Clone(), a.Clone(), a.Clone()
			and.And(b)
			or.Or(b)
			andNot.AndNot(b)
			wantAndNotCount := 0
			for i := 0; i < n; i++ {
				if and.Get(i) != (ma[i] && mb[i]) {
					t.Fatalf("n=%d: And bit %d = %v", n, i, and.Get(i))
				}
				if or.Get(i) != (ma[i] || mb[i]) {
					t.Fatalf("n=%d: Or bit %d = %v", n, i, or.Get(i))
				}
				if andNot.Get(i) != (ma[i] && !mb[i]) {
					t.Fatalf("n=%d: AndNot bit %d = %v", n, i, andNot.Get(i))
				}
				if ma[i] && !mb[i] {
					wantAndNotCount++
				}
			}
			if got := a.AndNotCount(b); got != wantAndNotCount {
				t.Fatalf("n=%d: AndNotCount = %d, want %d", n, got, wantAndNotCount)
			}
			// AndNotOrCount against a third vector: a ∧ ¬(b ∨ c).
			c, _, mc, _ := randomPair(n, rng)
			wantAndNotOrCount := 0
			for i := 0; i < n; i++ {
				if ma[i] && !mb[i] && !mc[i] {
					wantAndNotOrCount++
				}
			}
			if got := a.AndNotOrCount(b, c); got != wantAndNotOrCount {
				t.Fatalf("n=%d: AndNotOrCount = %d, want %d", n, got, wantAndNotOrCount)
			}
			// The in-place kernels must preserve the padding invariant.
			for _, v := range []*Vector{and, or, andNot} {
				count := 0
				for i := 0; i < n; i++ {
					if v.Get(i) {
						count++
					}
				}
				if v.OnesCount() != count {
					t.Fatalf("n=%d: padding bits leaked into OnesCount (%d != %d)", n, v.OnesCount(), count)
				}
			}
		}
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		v := New(n)
		v.SetAll()
		if v.OnesCount() != n {
			t.Fatalf("n=%d: OnesCount after SetAll = %d", n, v.OnesCount())
		}
		if n > 0 {
			// Padding bits must stay zero so Word popcounts are exact.
			last := v.Word(v.NumWords() - 1)
			if tail := n % 64; tail != 0 && last>>uint(tail) != 0 {
				t.Fatalf("n=%d: padding bits set in last word %b", n, last)
			}
		}
	}
}

func TestNextSet(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		v.Set(i, true)
	}
	want := []int{0, 5, 63, 64, 100, 129}
	got := []int{}
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if v.NextSet(130) != -1 {
		t.Error("NextSet(Len) != -1")
	}
	if v.NextSet(-3) != 0 {
		t.Error("NextSet(negative) should clamp to 0")
	}
	if New(70).NextSet(0) != -1 {
		t.Error("NextSet on empty vector != -1")
	}
}

func TestNextSetRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		v := New(n)
		model := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i, true)
				model[i] = true
			}
		}
		for start := 0; start <= n; start++ {
			want := -1
			for i := start; i < n; i++ {
				if model[i] {
					want = i
					break
				}
			}
			if got := v.NextSet(start); got != want {
				t.Fatalf("n=%d: NextSet(%d) = %d, want %d", n, start, got, want)
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	for name, fn := range map[string]func(){
		"And":                  func() { a.And(b) },
		"Or":                   func() { a.Or(b) },
		"AndNot":               func() { a.AndNot(b) },
		"AndNotCount":          func() { a.AndNotCount(b) },
		"AndNotOrCount":        func() { a.AndNotOrCount(b, a) },
		"AndNotOrCount/second": func() { a.AndNotOrCount(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}
