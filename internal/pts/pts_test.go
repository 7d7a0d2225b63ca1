package pts_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pts"
)

// small caps generated IDs so sets collide often.
func small(xs []uint32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = x % 300
	}
	return out
}

// asMap builds a reference set.
func asMap(xs []uint32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func TestAddHasRemove(t *testing.T) {
	s := &pts.Set{}
	if s.Has(5) || s.Len() != 0 || !s.IsEmpty() {
		t.Fatal("zero set must be empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add must report change exactly once")
	}
	if !s.Has(5) || s.Len() != 1 {
		t.Fatal("Has/Len after Add")
	}
	if !s.Remove(5) || s.Remove(5) {
		t.Fatal("Remove must report change exactly once")
	}
	if s.Has(5) || !s.IsEmpty() {
		t.Fatal("set must be empty after Remove")
	}
}

func TestAddMatchesReference(t *testing.T) {
	f := func(xs []uint32) bool {
		xs = small(xs)
		s := pts.FromSlice(xs)
		ref := asMap(xs)
		if s.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
		}
		ok := true
		s.ForEach(func(x uint32) {
			if !ref[x] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// exactBytes is Bytes() of a set whose arrays hold no spare capacity: the
// header plus one base and one word per 64-ID block in use.
func exactBytes(s *pts.Set) uint64 {
	blocks := map[uint32]bool{}
	s.ForEach(func(x uint32) { blocks[x/64] = true })
	return 48 + 12*uint64(len(blocks))
}

func TestWithMatchesAdd(t *testing.T) {
	f := func(xs []uint32, x uint32) bool {
		s := pts.FromSlice(small(xs))
		x %= 300
		before := s.Copy()
		got := s.With(x)
		want := s.Copy()
		want.Add(x)
		return got.Equal(want) && s.Equal(before) && got.Bytes() == exactBytes(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElemsSorted(t *testing.T) {
	f := func(xs []uint32) bool {
		s := pts.FromSlice(small(xs))
		elems := s.Elems()
		return sort.SliceIsSorted(elems, func(i, j int) bool { return elems[i] < elems[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionIsUnion(t *testing.T) {
	f := func(a, b []uint32) bool {
		a, b = small(a), small(b)
		s := pts.FromSlice(a)
		s.UnionWith(pts.FromSlice(b))
		ref := asMap(append(append([]uint32{}, a...), b...))
		if s.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionWithReportsChange(t *testing.T) {
	f := func(a, b []uint32) bool {
		a, b = small(a), small(b)
		s := pts.FromSlice(a)
		t2 := pts.FromSlice(b)
		changed := s.Copy().UnionWith(t2)
		return changed == !t2.SubsetOf(pts.FromSlice(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionAddedIsExactlyNewElements(t *testing.T) {
	f := func(a, b []uint32) bool {
		a, b = small(a), small(b)
		s := pts.FromSlice(a)
		base := asMap(a)
		_, diff := s.Union(pts.FromSlice(b))
		// diff must contain exactly the elements of b not in a.
		want := map[uint32]bool{}
		for _, x := range b {
			if !base[x] {
				want[x] = true
			}
		}
		if diff == nil {
			return len(want) == 0
		}
		if diff.Len() != len(want) {
			return false
		}
		ok := true
		diff.ForEach(func(x uint32) {
			if !want[x] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectMatchesReference(t *testing.T) {
	f := func(a, b []uint32) bool {
		a, b = small(a), small(b)
		sa, sb := pts.FromSlice(a), pts.FromSlice(b)
		inter := sa.Intersect(sb)
		ra, rb := asMap(a), asMap(b)
		for x := range ra {
			if rb[x] != inter.Has(x) {
				return false
			}
		}
		if sa.IntersectsWith(sb) != (inter.Len() > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsetAndEqual(t *testing.T) {
	f := func(a, b []uint32) bool {
		a, b = small(a), small(b)
		sa, sb := pts.FromSlice(a), pts.FromSlice(b)
		union := sa.Copy()
		union.UnionWith(sb)
		if !sa.SubsetOf(union) || !sb.SubsetOf(union) {
			return false
		}
		if sa.Equal(sb) != (sa.SubsetOf(sb) && sb.SubsetOf(sa)) {
			return false
		}
		return sa.Equal(sa.Copy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSingle(t *testing.T) {
	s := &pts.Set{}
	if _, ok := s.Single(); ok {
		t.Error("empty set is not single")
	}
	s.Add(77)
	if v, ok := s.Single(); !ok || v != 77 {
		t.Errorf("Single = %v,%v want 77,true", v, ok)
	}
	s.Add(300)
	if _, ok := s.Single(); ok {
		t.Error("two-element set is not single")
	}
}

func TestSingleAcrossWords(t *testing.T) {
	// Two elements in different 64-bit words must not be "single".
	s := &pts.Set{}
	s.Add(1)
	s.Add(1000)
	if _, ok := s.Single(); ok {
		t.Error("elements in different words")
	}
	s.Remove(1)
	if v, ok := s.Single(); !ok || v != 1000 {
		t.Errorf("Single = %v,%v want 1000,true", v, ok)
	}
}

func TestClearAndCopyIndependence(t *testing.T) {
	s := pts.FromSlice([]uint32{1, 2, 3})
	c := s.Copy()
	s.Clear()
	if !s.IsEmpty() {
		t.Error("Clear must empty the set")
	}
	if c.Len() != 3 {
		t.Error("Copy must be independent")
	}
}

func TestRemoveCompaction(t *testing.T) {
	s := &pts.Set{}
	for i := uint32(0); i < 500; i += 64 {
		s.Add(i)
	}
	for i := uint32(0); i < 500; i += 64 {
		if !s.Remove(i) {
			t.Fatalf("Remove(%d)", i)
		}
	}
	if !s.IsEmpty() {
		t.Error("set must be empty after removing everything")
	}
}

func TestStringFormat(t *testing.T) {
	s := pts.FromSlice([]uint32{3, 1})
	if got := s.String(); got != "{1, 3}" {
		t.Errorf("String = %q", got)
	}
}

func TestBytesGrows(t *testing.T) {
	s := &pts.Set{}
	b0 := s.Bytes()
	for i := uint32(0); i < 1000; i += 64 {
		s.Add(i)
	}
	if s.Bytes() <= b0 {
		t.Error("Bytes must grow with content")
	}
}

// TestRandomizedOpsAgainstMap drives a long random op sequence against a
// reference map.
func TestRandomizedOpsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := &pts.Set{}
	ref := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		x := uint32(rng.Intn(2048))
		switch rng.Intn(3) {
		case 0:
			if s.Add(x) == ref[x] {
				t.Fatalf("Add(%d) change mismatch", x)
			}
			ref[x] = true
		case 1:
			if s.Remove(x) != ref[x] {
				t.Fatalf("Remove(%d) change mismatch", x)
			}
			delete(ref, x)
		default:
			if s.Has(x) != ref[x] {
				t.Fatalf("Has(%d) mismatch", x)
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("final Len %d != %d", s.Len(), len(ref))
	}
}

func TestRankIsPosition(t *testing.T) {
	f := func(xs []uint32, probe uint32) bool {
		xs = small(xs)
		s := pts.FromSlice(xs)
		elems := s.Elems()
		for i, x := range elems {
			if r, ok := s.Rank(x); r != i || !ok {
				return false
			}
		}
		probe %= 300
		want := sort.Search(len(elems), func(i int) bool { return elems[i] >= probe })
		r, ok := s.Rank(probe)
		return r == want && ok == asMap(xs)[probe]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
