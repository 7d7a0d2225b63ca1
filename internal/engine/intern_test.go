package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pts"
)

func TestEmptySetIsZero(t *testing.T) {
	it := NewInterner()
	if got := it.Intern(&pts.Set{}); got != EmptySet {
		t.Fatalf("Intern(empty) = %d, want %d", got, EmptySet)
	}
	if got := it.Intern(nil); got != EmptySet {
		t.Fatalf("Intern(nil) = %d, want %d", got, EmptySet)
	}
	if !it.Set(EmptySet).IsEmpty() {
		t.Fatal("Set(EmptySet) not empty")
	}
}

func TestInternCanonicalizes(t *testing.T) {
	it := NewInterner()
	a := it.Intern(pts.FromSlice([]uint32{1, 5, 900}))
	b := it.Intern(pts.FromSlice([]uint32{900, 1, 5}))
	if a != b {
		t.Fatalf("equal sets interned to different IDs: %d vs %d", a, b)
	}
	c := it.Intern(pts.FromSlice([]uint32{1, 5}))
	if c == a {
		t.Fatal("distinct sets interned to the same ID")
	}
	// Equality is pointer comparison on the canonical sets.
	if it.Set(a) != it.Set(b) {
		t.Fatal("canonical sets of equal content are distinct pointers")
	}
}

func TestInternCopiesCallerSet(t *testing.T) {
	it := NewInterner()
	s := pts.FromSlice([]uint32{1, 2})
	id := it.Intern(s)
	s.Add(77) // caller keeps ownership; interner must be unaffected
	if it.Set(id).Has(77) {
		t.Fatal("interner aliased a caller-owned set")
	}
}

func TestAddUnionDiff(t *testing.T) {
	it := NewInterner()
	a := it.Singleton(3)
	a = it.Add(a, 70)
	if got := it.Set(a).Elems(); len(got) != 2 || got[0] != 3 || got[1] != 70 {
		t.Fatalf("Add built %v", got)
	}
	if it.Add(a, 3) != a {
		t.Fatal("Add of existing element changed the ID")
	}

	b := it.Intern(pts.FromSlice([]uint32{70, 500}))
	u, d := it.UnionDiff(a, b)
	if got := it.Set(u).Elems(); len(got) != 3 {
		t.Fatalf("union = %v", got)
	}
	if got := it.Set(d).Elems(); len(got) != 1 || got[0] != 500 {
		t.Fatalf("added = %v, want [500]", got)
	}
	// b ⊆ u: union is a fixpoint, diff empty.
	u2, d2 := it.UnionDiff(u, b)
	if u2 != u || d2 != EmptySet {
		t.Fatalf("UnionDiff(u, b) = (%d, %d), want (%d, 0)", u2, d2, u)
	}
	if it.Union(EmptySet, b) != b || it.Union(b, EmptySet) != b {
		t.Fatal("union with empty is not identity")
	}
}

// TestInternerMatchesReference drives random interner operations against a
// per-handle map[uint32]bool reference model, checking both content and the
// canonicalization invariant (equal content ⇔ equal SetID).
// TestAddExactSize: a set built by Add holds no spare capacity, so its
// Bytes() is the header plus 12 bytes per 64-ID block.
func TestAddExactSize(t *testing.T) {
	it := NewInterner()
	id := EmptySet
	for i, x := range []uint32{1, 200, 400, 600, 800} {
		id = it.Add(id, x)
		if got, want := it.Set(id).Bytes(), uint64(48+12*(i+1)); got != want {
			t.Fatalf("after adding %d: Bytes() = %d, want %d", x, got, want)
		}
	}
	// Adding into a block the set already holds keeps it exact too.
	id = it.Add(id, 2)
	if got, want := it.Set(id).Bytes(), uint64(48+12*5); got != want {
		t.Fatalf("after adding 2: Bytes() = %d, want %d", got, want)
	}
}

func TestInternerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	it := NewInterner()

	ids := []SetID{EmptySet}
	models := []map[uint32]bool{{}}

	copyModel := func(m map[uint32]bool) map[uint32]bool {
		c := make(map[uint32]bool, len(m))
		for k := range m {
			c[k] = true
		}
		return c
	}

	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(ids))
		switch rng.Intn(3) {
		case 0: // Add
			x := uint32(rng.Intn(300))
			nid := it.Add(ids[i], x)
			m := copyModel(models[i])
			m[x] = true
			ids = append(ids, nid)
			models = append(models, m)
		case 1: // Union
			j := rng.Intn(len(ids))
			nid := it.Union(ids[i], ids[j])
			m := copyModel(models[i])
			for k := range models[j] {
				m[k] = true
			}
			ids = append(ids, nid)
			models = append(models, m)
		case 2: // UnionDiff: check the added part exactly
			j := rng.Intn(len(ids))
			u, d := it.UnionDiff(ids[i], ids[j])
			for k := range models[j] {
				if !it.Has(u, k) {
					t.Fatalf("step %d: union missing %d", step, k)
				}
				if !models[i][k] != it.Has(d, k) {
					t.Fatalf("step %d: added-set wrong at %d", step, k)
				}
			}
			it.Set(d).ForEach(func(k uint32) {
				if models[i][k] || !models[j][k] {
					t.Fatalf("step %d: spurious added element %d", step, k)
				}
			})
			m := copyModel(models[i])
			for k := range models[j] {
				m[k] = true
			}
			ids = append(ids, u)
			models = append(models, m)
		}
	}

	// Content check plus canonicalization: same content ⇒ same ID.
	byLen := map[int][]int{}
	for i, id := range ids {
		got := it.Set(id)
		if got.Len() != len(models[i]) {
			t.Fatalf("handle %d: len %d, want %d", i, got.Len(), len(models[i]))
		}
		for k := range models[i] {
			if !got.Has(k) {
				t.Fatalf("handle %d: missing %d", i, k)
			}
		}
		byLen[got.Len()] = append(byLen[got.Len()], i)
	}
	for _, group := range byLen {
		for a := 0; a < len(group); a++ {
			for b := a + 1; b < len(group); b++ {
				i, j := group[a], group[b]
				if it.Set(ids[i]).Equal(it.Set(ids[j])) && ids[i] != ids[j] {
					t.Fatalf("equal sets with distinct IDs %d vs %d", ids[i], ids[j])
				}
			}
		}
	}
}

func TestRefStats(t *testing.T) {
	it := NewInterner()
	a := it.Intern(pts.FromSlice([]uint32{1, 2, 3}))
	b := it.Intern(pts.FromSlice([]uint32{9}))

	rs := it.NewRefStats()
	for i := 0; i < 10; i++ {
		rs.Ref(a)
	}
	rs.Ref(b)
	rs.Ref(EmptySet) // ignored

	if rs.Refs != 11 || rs.Unique != 2 {
		t.Fatalf("Refs=%d Unique=%d, want 11/2", rs.Refs, rs.Unique)
	}
	if rs.LogicalBytes != 10*it.Set(a).Bytes()+it.Set(b).Bytes() {
		t.Fatalf("LogicalBytes=%d", rs.LogicalBytes)
	}
	if rs.UniqueBytes != it.Set(a).Bytes()+it.Set(b).Bytes() {
		t.Fatalf("UniqueBytes=%d", rs.UniqueBytes)
	}
	if rs.DedupRatio() <= 1 {
		t.Fatalf("DedupRatio=%f, want > 1", rs.DedupRatio())
	}

	other := it.NewRefStats()
	other.Ref(b)
	rs.AddFrom(other)
	if rs.Refs != 12 || rs.Unique != 3 {
		t.Fatalf("after AddFrom: Refs=%d Unique=%d", rs.Refs, rs.Unique)
	}
}
