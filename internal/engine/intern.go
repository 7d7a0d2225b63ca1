// Package engine is the shared solver substrate every pointer analysis in
// this repository builds on. It provides two layers:
//
//   - an interning (hash-consing) table over pts.Set: every distinct
//     points-to set is stored once as an immutable canonical set, handles
//     are small SetID integers, set equality is ID comparison, and
//     union/add/diff results are memoized so the solvers' hot operations
//     become cache lookups. This is what keeps the Bytes metric (the
//     paper's Table 2 memory column) proportional to the number of
//     *distinct* sets rather than the number of program points.
//
//   - a rank-bitset worklist (worklist.go) that pops nodes in
//     reverse-postorder over the SCC condensation of the constraint or
//     def-use graph, recomputed lazily as on-the-fly edges land, in
//     exactly the order of the binary heap it replaced.
//
// The Andersen pre-analysis, the NonSparse baseline and the sparse FSAM
// core all run on this layer instead of private worklists and per-slot set
// storage.
package engine

import "repro/internal/pts"

// SetID is a handle to a canonical interned set. The zero SetID is the
// empty set, so zero-valued slots are correct by default.
type SetID uint32

// EmptySet is the SetID of the canonical empty set.
const EmptySet SetID = 0

// Interner hash-conses pts.Set values. All sets returned by Set are
// canonical and MUST NOT be mutated by callers. An Interner is not safe for
// concurrent use; each solver run owns one.
type Interner struct {
	sets   []*pts.Set
	lookup map[uint64][]SetID

	unionCache map[pairKey]SetID
	diffCache  map[pairKey]unionDiff
	addCache   map[addKey]SetID

	// Hits/Misses count memo-cache outcomes on Union/UnionDiff/Add, for
	// diagnostics.
	Hits, Misses uint64
}

type pairKey struct{ a, b SetID }

type addKey struct {
	s SetID
	x uint32
}

type unionDiff struct{ union, added SetID }

// NewInterner returns an empty interner whose SetID 0 is the empty set.
func NewInterner() *Interner {
	it := &Interner{
		lookup:     map[uint64][]SetID{},
		unionCache: map[pairKey]SetID{},
		diffCache:  map[pairKey]unionDiff{},
		addCache:   map[addKey]SetID{},
	}
	empty := &pts.Set{}
	it.sets = append(it.sets, empty)
	it.lookup[empty.Hash()] = append(it.lookup[empty.Hash()], EmptySet)
	return it
}

// Set returns the canonical set for id. The result must not be mutated.
func (it *Interner) Set(id SetID) *pts.Set { return it.sets[id] }

// Len returns the cardinality of set id.
func (it *Interner) Len(id SetID) int { return it.sets[id].Len() }

// Has reports whether x is in set id.
func (it *Interner) Has(id SetID, x uint32) bool { return it.sets[id].Has(x) }

// internOwned canonicalizes a freshly built set the interner may keep.
func (it *Interner) internOwned(s *pts.Set) SetID {
	h := s.Hash()
	for _, id := range it.lookup[h] {
		if it.sets[id].Equal(s) {
			return id
		}
	}
	id := SetID(len(it.sets))
	it.sets = append(it.sets, s)
	it.lookup[h] = append(it.lookup[h], id)
	return id
}

// Intern canonicalizes a caller-owned set. The caller keeps ownership of s
// and may mutate it afterwards (the interner copies when s is new).
func (it *Interner) Intern(s *pts.Set) SetID {
	if s == nil || s.IsEmpty() {
		return EmptySet
	}
	h := s.Hash()
	for _, id := range it.lookup[h] {
		if it.sets[id].Equal(s) {
			return id
		}
	}
	id := SetID(len(it.sets))
	it.sets = append(it.sets, s.Copy())
	it.lookup[h] = append(it.lookup[h], id)
	return id
}

// Singleton returns the canonical set {x}.
func (it *Interner) Singleton(x uint32) SetID { return it.Add(EmptySet, x) }

// Add returns the canonical set a ∪ {x}.
func (it *Interner) Add(a SetID, x uint32) SetID {
	if it.sets[a].Has(x) {
		return a
	}
	key := addKey{s: a, x: x}
	if r, ok := it.addCache[key]; ok {
		it.Hits++
		return r
	}
	it.Misses++
	r := it.internOwned(it.sets[a].With(x))
	it.addCache[key] = r
	return r
}

// Union returns the canonical set a ∪ b.
func (it *Interner) Union(a, b SetID) SetID {
	u, _ := it.UnionDiff(a, b)
	return u
}

// UnionDiff returns the canonical union a ∪ b together with the canonical
// set of elements of b that were not in a (EmptySet when b ⊆ a). It is the
// engine form of the difference-propagation primitive every solver's
// "changed" scheduling is built on.
func (it *Interner) UnionDiff(a, b SetID) (union, added SetID) {
	if b == EmptySet || a == b {
		return a, EmptySet
	}
	if a == EmptySet {
		return b, b
	}
	key := pairKey{a: a, b: b}
	if r, ok := it.diffCache[key]; ok {
		it.Hits++
		return r.union, r.added
	}
	it.Misses++
	u, d := it.sets[a].Union(it.sets[b])
	if d == nil {
		union, added = a, EmptySet
	} else {
		union = it.internOwned(u)
		added = it.internOwned(d)
	}
	it.diffCache[key] = unionDiff{union: union, added: added}
	return union, added
}

// Bytes reports the heap footprint of the canonical sets plus the index
// overhead of the table itself (one pointer and one lookup slot per set).
func (it *Interner) Bytes() uint64 {
	var total uint64
	for _, s := range it.sets {
		total += s.Bytes()
	}
	// Pointer slice + lookup entries, approximately.
	total += uint64(len(it.sets)) * 16
	return total
}

// RefStats accumulates sharing statistics over the SetID slots a finished
// solver result holds: how many slots reference a set, how many distinct
// sets those references resolve to, and the byte cost with and without
// interning. Empty-set references are skipped (a nil/empty slot occupied no
// set storage before interning either).
type RefStats struct {
	it   *Interner
	seen map[SetID]struct{}

	// Refs counts non-empty set references; Unique counts distinct sets.
	Refs   int
	Unique int
	// LogicalBytes is what the referenced sets would cost if every slot
	// owned a private copy (the pre-interning representation); UniqueBytes
	// is what the canonical sets actually cost.
	LogicalBytes uint64
	UniqueBytes  uint64
}

// NewRefStats returns an accumulator bound to this interner.
func (it *Interner) NewRefStats() *RefStats {
	return &RefStats{it: it, seen: map[SetID]struct{}{}}
}

// Ref records one slot referencing set id.
func (r *RefStats) Ref(id SetID) {
	if id == EmptySet {
		return
	}
	b := r.it.sets[id].Bytes()
	r.Refs++
	r.LogicalBytes += b
	if _, ok := r.seen[id]; !ok {
		r.seen[id] = struct{}{}
		r.Unique++
		r.UniqueBytes += b
	}
}

// DedupRatio returns LogicalBytes/UniqueBytes (1.0 when nothing is
// referenced). Values above 1 mean interning is sharing sets.
func (r *RefStats) DedupRatio() float64 {
	if r.UniqueBytes == 0 {
		return 1
	}
	return float64(r.LogicalBytes) / float64(r.UniqueBytes)
}

// AddFrom folds another accumulator's totals into r (used to combine the
// per-solver stats into one Stats block; the interners are distinct so
// unique sets simply add).
func (r *RefStats) AddFrom(o *RefStats) {
	if o == nil {
		return
	}
	r.Refs += o.Refs
	r.Unique += o.Unique
	r.LogicalBytes += o.LogicalBytes
	r.UniqueBytes += o.UniqueBytes
}
