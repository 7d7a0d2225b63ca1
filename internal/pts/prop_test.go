package pts_test

// Property tests pitting Set (and the operations the engine interner relies
// on — Difference, Hash, changed flags) against a map[uint32]bool reference
// model. These complement pts_test.go: here every property is phrased over
// randomly generated inputs via testing/quick or a seeded random op stream.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pts"
)

func TestDifferenceMatchesReference(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		xs, ys = small(xs), small(ys)
		s, u := pts.FromSlice(xs), pts.FromSlice(ys)
		d := s.Difference(u)
		ref := asMap(xs)
		for y := range asMap(ys) {
			delete(ref, y)
		}
		if d.Len() != len(ref) {
			return false
		}
		ok := true
		d.ForEach(func(x uint32) {
			if !ref[x] {
				ok = false
			}
		})
		// Difference must not mutate its operands.
		return ok && s.Len() == len(asMap(xs)) && u.Len() == len(asMap(ys))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDifferenceOfSelfAndNil(t *testing.T) {
	f := func(xs []uint32) bool {
		s := pts.FromSlice(small(xs))
		if !s.Difference(s).IsEmpty() {
			return false
		}
		d := s.Difference(nil)
		return d.Equal(s) && d != s // a copy, not the receiver
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashEqualSetsHashEqual(t *testing.T) {
	f := func(xs []uint32) bool {
		xs = small(xs)
		a := pts.FromSlice(xs)
		// Build b by inserting in reverse order: same content, different
		// construction history.
		b := &pts.Set{}
		for i := len(xs) - 1; i >= 0; i-- {
			b.Add(xs[i])
		}
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashRarelyCollides(t *testing.T) {
	// Not a correctness requirement (the interner handles collisions), but a
	// hash that collapses distinct small sets would degrade it to a list.
	seen := map[uint64]*pts.Set{}
	rng := rand.New(rand.NewSource(7))
	collisions := 0
	for i := 0; i < 2000; i++ {
		s := &pts.Set{}
		for j := 0; j < rng.Intn(8); j++ {
			s.Add(uint32(rng.Intn(512)))
		}
		h := s.Hash()
		if prev, ok := seen[h]; ok && !prev.Equal(s) {
			collisions++
		}
		seen[h] = s
	}
	if collisions > 2 {
		t.Fatalf("%d hash collisions among 2000 small random sets", collisions)
	}
}

// TestModelBasedOps drives a Set and a map model through a long random
// stream of Add / UnionWith / Union / Difference operations, checking
// element agreement, ForEach ordering and the changed flags at every step.
func TestModelBasedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := &pts.Set{}
	model := map[uint32]bool{}

	check := func(step int) {
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, s.Len(), len(model))
		}
		prev := int64(-1)
		s.ForEach(func(x uint32) {
			if int64(x) <= prev {
				t.Fatalf("step %d: ForEach out of order (%d after %d)", step, x, prev)
			}
			prev = int64(x)
			if !model[x] {
				t.Fatalf("step %d: set has %d, model does not", step, x)
			}
		})
	}

	randomSet := func() (*pts.Set, map[uint32]bool) {
		o := &pts.Set{}
		om := map[uint32]bool{}
		for j := 0; j < rng.Intn(12); j++ {
			x := uint32(rng.Intn(400))
			o.Add(x)
			om[x] = true
		}
		return o, om
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(4) {
		case 0: // Add with changed flag
			x := uint32(rng.Intn(400))
			changed := s.Add(x)
			if changed == model[x] {
				t.Fatalf("step %d: Add(%d) changed=%v but model had=%v", step, x, changed, model[x])
			}
			model[x] = true
		case 1: // UnionWith with changed flag
			o, om := randomSet()
			wouldChange := false
			for x := range om {
				if !model[x] {
					wouldChange = true
				}
			}
			if changed := s.UnionWith(o); changed != wouldChange {
				t.Fatalf("step %d: UnionWith changed=%v want %v", step, changed, wouldChange)
			}
			for x := range om {
				model[x] = true
			}
		case 2: // Union returns exactly the new elements
			o, om := randomSet()
			want := map[uint32]bool{}
			for x := range om {
				if !model[x] {
					want[x] = true
				}
			}
			union, diff := s.Union(o)
			got := map[uint32]bool{}
			if diff != nil {
				diff.ForEach(func(x uint32) { got[x] = true })
				s = union
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: Union added %d elems, want %d", step, len(got), len(want))
			}
			for x := range want {
				if !got[x] {
					t.Fatalf("step %d: Union missing %d", step, x)
				}
			}
			for x := range om {
				model[x] = true
			}
		case 3: // Difference is pure
			o, om := randomSet()
			d := s.Difference(o)
			for x := range model {
				if om[x] && d.Has(x) {
					t.Fatalf("step %d: Difference kept removed elem %d", step, x)
				}
				if !om[x] && !d.Has(x) {
					t.Fatalf("step %d: Difference dropped kept elem %d", step, x)
				}
			}
		}
		check(step)
	}
}
