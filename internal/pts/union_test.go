package pts_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pts"
)

// refMerge is the reference union: a merge of the two sorted element
// lists, plus the elements of t that s lacks.
func refMerge(s, t *pts.Set) (union, added []uint32) {
	a, b := s.Elems(), t.Elems()
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			union = append(union, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			union = append(union, b[j])
			added = append(added, b[j])
			j++
		default:
			union = append(union, a[i])
			i++
			j++
		}
	}
	return union, added
}

// randomUnionSet draws a set whose elements cluster in a few of a small
// number of 64-ID blocks, so pairs share blocks, share words, and add
// blocks before, between and after each other's.
func randomUnionSet(rng *rand.Rand) *pts.Set {
	s := &pts.Set{}
	blocks := rng.Intn(6)
	for b := 0; b < blocks; b++ {
		base := uint32(rng.Intn(10)) * 64
		for k := rng.Intn(5); k >= 0; k-- {
			s.Add(base + uint32(rng.Intn(64)))
		}
	}
	return s
}

// blocks counts the distinct 64-ID blocks of a sorted element list.
func blocks(xs []uint32) int {
	n := 0
	for i, x := range xs {
		if i == 0 || x/64 != xs[i-1]/64 {
			n++
		}
	}
	return n
}

func TestUnionWithMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		s, u := randomUnionSet(rng), randomUnionSet(rng)
		want, added := refMerge(s, u)
		uBefore := u.Elems()
		if changed := s.UnionWith(u); changed != (len(added) > 0) {
			t.Fatalf("iter %d: changed=%v, reference adds %v", iter, changed, added)
		}
		if !s.Equal(pts.FromSlice(want)) {
			t.Fatalf("iter %d: got %v, want %v", iter, s, want)
		}
		if !slices.Equal(u.Elems(), uBefore) {
			t.Fatalf("iter %d: argument changed from %v to %v", iter, uBefore, u)
		}
		// A set united with itself, nil or an empty set is unchanged.
		before := s.Elems()
		if s.UnionWith(s) || s.UnionWith(nil) || s.UnionWith(&pts.Set{}) {
			t.Fatalf("iter %d: self, nil or empty union reported a change", iter)
		}
		if !slices.Equal(s.Elems(), before) {
			t.Fatalf("iter %d: self, nil or empty union changed %v to %v", iter, before, s)
		}
	}
}

func TestUnionMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 5000; iter++ {
		s, u := randomUnionSet(rng), randomUnionSet(rng)
		want, wantAdded := refMerge(s, u)
		sBefore, uBefore := s.Elems(), u.Elems()
		union, added := s.Union(u)
		if !slices.Equal(s.Elems(), sBefore) || !slices.Equal(u.Elems(), uBefore) {
			t.Fatalf("iter %d: Union changed an operand", iter)
		}
		if len(wantAdded) == 0 {
			if union != nil || added != nil {
				t.Fatalf("iter %d: %v ⊆ %v, got (%v, %v), want nil, nil", iter, u, s, union, added)
			}
			continue
		}
		if !union.Equal(pts.FromSlice(want)) || !added.Equal(pts.FromSlice(wantAdded)) {
			t.Fatalf("iter %d: got (%v, %v), want (%v, %v)", iter, union, added, want, wantAdded)
		}
		// Exactly sized: 48 header bytes and 12 per block, no spare capacity.
		if got, exact := union.Bytes(), uint64(48+12*blocks(want)); got != exact {
			t.Fatalf("iter %d: union holds %d bytes, exact size is %d", iter, got, exact)
		}
		if got, exact := added.Bytes(), uint64(48+12*blocks(wantAdded)); got != exact {
			t.Fatalf("iter %d: added set holds %d bytes, exact size is %d", iter, got, exact)
		}
	}
	s := pts.FromSlice([]uint32{1, 200})
	if u, a := s.Union(nil); u != nil || a != nil {
		t.Fatal("Union(nil) must return nil, nil")
	}
	if u, a := s.Union(s); u != nil || a != nil {
		t.Fatal("Union(s) with itself must return nil, nil")
	}
}

// TestUnionWithAllocations pins the in-place paths: UnionWith allocates
// nothing when t ⊆ s or when t adds bits only to blocks s already has.
func TestUnionWithAllocations(t *testing.T) {
	s := pts.FromSlice([]uint32{1, 2, 70, 300, 301, 900})
	sub := pts.FromSlice([]uint32{2, 300, 900})
	if n := testing.AllocsPerRun(100, func() { s.UnionWith(sub) }); n != 0 {
		t.Fatalf("UnionWith of a subset: %.0f allocations, want 0", n)
	}
	sameBlocks := pts.FromSlice([]uint32{3, 71, 302})
	if n := testing.AllocsPerRun(100, func() {
		// Removing bits that leave their words non-zero keeps every block,
		// so each run takes the OR-in-place path again.
		s.Remove(3)
		s.Remove(71)
		s.Remove(302)
		if !s.UnionWith(sameBlocks) {
			t.Fatal("UnionWith of new bits in existing blocks reported no change")
		}
	}); n != 0 {
		t.Fatalf("UnionWith adding no block: %.0f allocations, want 0", n)
	}
	if want := []uint32{1, 2, 3, 70, 71, 300, 301, 302, 900}; !slices.Equal(s.Elems(), want) {
		t.Fatalf("got %v, want %v", s, want)
	}
}

// BenchmarkUnionWith times UnionWith on each of its three paths (t ⊆ s,
// new bits in existing blocks only, new blocks) and Union, over sets of
// about 200 elements in 32 blocks. The two mutating paths include a Copy
// of s (two allocations).
func BenchmarkUnionWith(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	draw := func(blockStep int) *pts.Set {
		s := &pts.Set{}
		for k := 0; k < 32; k++ {
			for e := 0; e < 6; e++ {
				s.Add(uint32(k*blockStep*64 + rng.Intn(64)))
			}
		}
		return s
	}
	s := draw(2)
	sub := s.Difference(draw(2))
	same := draw(2)
	fresh := draw(3)
	b.Run("subset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.UnionWith(sub)
		}
	})
	b.Run("sameblocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := s.Copy()
			c.UnionWith(same)
		}
	})
	b.Run("newblocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := s.Copy()
			c.UnionWith(fresh)
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Union(fresh)
		}
	})
}
