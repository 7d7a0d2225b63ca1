// Package pts provides the points-to set representation shared by every
// pointer analysis in this repository: a sorted sparse bit vector over
// 64-bit words, supporting the diff-propagation operations the solvers need
// (union-with-changed, difference, iteration) plus exact byte accounting so
// the benchmark harness can report memory usage the way the paper does.
package pts

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// wordBits is the number of element IDs covered by one word.
const wordBits = 64

// Set is a sparse bit vector of uint32 element IDs. The zero value is an
// empty set ready to use.
type Set struct {
	// base[i]*64 is the first ID covered by words[i]; base is strictly
	// increasing and words[i] is never zero.
	base  []uint32
	words []uint64
}

// Len returns the number of elements.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool { return len(s.words) == 0 }

// find returns the index of block b in base, or the insertion point with
// ok=false.
func (s *Set) find(b uint32) (int, bool) {
	lo, hi := 0, len(s.base)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.base[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.base) && s.base[lo] == b
}

// Has reports whether x is in the set.
func (s *Set) Has(x uint32) bool {
	i, ok := s.find(x / wordBits)
	return ok && s.words[i]&(1<<(x%wordBits)) != 0
}

// Rank returns the number of elements smaller than x and whether x is in
// the set: the position of x in ascending order when it is.
func (s *Set) Rank(x uint32) (int, bool) {
	i, ok := s.find(x / wordBits)
	n := 0
	for _, w := range s.words[:i] {
		n += bits.OnesCount64(w)
	}
	if !ok {
		return n, false
	}
	bit := uint64(1) << (x % wordBits)
	return n + bits.OnesCount64(s.words[i]&(bit-1)), s.words[i]&bit != 0
}

// Add inserts x, reporting whether the set changed.
func (s *Set) Add(x uint32) bool {
	b := x / wordBits
	bit := uint64(1) << (x % wordBits)
	i, ok := s.find(b)
	if ok {
		if s.words[i]&bit != 0 {
			return false
		}
		s.words[i] |= bit
		return true
	}
	s.base = append(s.base, 0)
	copy(s.base[i+1:], s.base[i:])
	s.base[i] = b
	s.words = append(s.words, 0)
	copy(s.words[i+1:], s.words[i:])
	s.words[i] = bit
	return true
}

// With returns s ∪ {x} as a new set whose arrays are allocated at their
// final length; s is unchanged.
func (s *Set) With(x uint32) *Set {
	b := x / wordBits
	bit := uint64(1) << (x % wordBits)
	i, ok := s.find(b)
	n := len(s.base)
	if !ok {
		n++
	}
	c := &Set{base: make([]uint32, n), words: make([]uint64, n)}
	if ok {
		copy(c.base, s.base)
		copy(c.words, s.words)
		c.words[i] |= bit
		return c
	}
	copy(c.base, s.base[:i])
	copy(c.words, s.words[:i])
	c.base[i], c.words[i] = b, bit
	copy(c.base[i+1:], s.base[i:])
	copy(c.words[i+1:], s.words[i:])
	return c
}

// Remove deletes x, reporting whether the set changed.
func (s *Set) Remove(x uint32) bool {
	b := x / wordBits
	bit := uint64(1) << (x % wordBits)
	i, ok := s.find(b)
	if !ok || s.words[i]&bit == 0 {
		return false
	}
	s.words[i] &^= bit
	if s.words[i] == 0 {
		s.base = append(s.base[:i], s.base[i+1:]...)
		s.words = append(s.words[:i], s.words[i+1:]...)
	}
	return true
}

// UnionWith adds every element of t to s, reporting whether s changed. It
// allocates only when t adds a block s lacks: blocks both hold are ORed in
// place, and new blocks are merged in from the back after growing s once.
// s must not share its backing arrays with another set.
func (s *Set) UnionWith(t *Set) bool {
	if t == nil || s == t {
		return false
	}
	changed, added := false, 0
	i := 0
	for j, b := range t.base {
		for i < len(s.base) && s.base[i] < b {
			i++
		}
		if i < len(s.base) && s.base[i] == b {
			if t.words[j]&^s.words[i] != 0 {
				s.words[i] |= t.words[j]
				changed = true
			}
		} else {
			added++
		}
	}
	if added == 0 {
		return changed
	}
	i, j := len(s.base)-1, len(t.base)-1
	n := len(s.base) + added
	s.base = slices.Grow(s.base, added)[:n]
	s.words = slices.Grow(s.words, added)[:n]
	// Shared blocks already hold t's bits; once t's blocks are placed the
	// rest of s is where it was.
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && s.base[i] >= t.base[j] {
			if s.base[i] == t.base[j] {
				j--
			}
			s.base[k], s.words[k] = s.base[i], s.words[i]
			i--
		} else {
			s.base[k], s.words[k] = t.base[j], t.words[j]
			j--
		}
	}
	return true
}

// Union returns s ∪ t and the set of elements of t not in s, both new and
// each allocated at its final length, or nil, nil when t ⊆ s. This is the
// primitive behind difference (wave) propagation in the solvers.
func (s *Set) Union(t *Set) (union, added *Set) {
	if t == nil {
		return nil, nil
	}
	nu, na := len(s.base), 0
	i := 0
	for j, b := range t.base {
		for i < len(s.base) && s.base[i] < b {
			i++
		}
		switch {
		case i == len(s.base) || s.base[i] != b:
			nu++
			na++
		case t.words[j]&^s.words[i] != 0:
			na++
		}
	}
	if na == 0 {
		return nil, nil
	}
	union = &Set{base: make([]uint32, 0, nu), words: make([]uint64, 0, nu)}
	added = &Set{base: make([]uint32, 0, na), words: make([]uint64, 0, na)}
	i = 0
	for j, b := range t.base {
		for ; i < len(s.base) && s.base[i] < b; i++ {
			union.base = append(union.base, s.base[i])
			union.words = append(union.words, s.words[i])
		}
		var w uint64
		if i < len(s.base) && s.base[i] == b {
			w = s.words[i]
			i++
		}
		if d := t.words[j] &^ w; d != 0 {
			added.base = append(added.base, b)
			added.words = append(added.words, d)
		}
		union.base = append(union.base, b)
		union.words = append(union.words, w|t.words[j])
	}
	union.base = append(union.base, s.base[i:]...)
	union.words = append(union.words, s.words[i:]...)
	return union, added
}

// IntersectsWith reports whether s and t share at least one element.
func (s *Set) IntersectsWith(t *Set) bool {
	if t == nil {
		return false
	}
	i, j := 0, 0
	for i < len(s.base) && j < len(t.base) {
		switch {
		case s.base[i] < t.base[j]:
			i++
		case s.base[i] > t.base[j]:
			j++
		default:
			if s.words[i]&t.words[j] != 0 {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// Intersect returns the intersection of s and t as a new set.
func (s *Set) Intersect(t *Set) *Set {
	out := &Set{}
	if t == nil {
		return out
	}
	i, j := 0, 0
	for i < len(s.base) && j < len(t.base) {
		switch {
		case s.base[i] < t.base[j]:
			i++
		case s.base[i] > t.base[j]:
			j++
		default:
			if w := s.words[i] & t.words[j]; w != 0 {
				out.base = append(out.base, s.base[i])
				out.words = append(out.words, w)
			}
			i++
			j++
		}
	}
	return out
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	if t == nil {
		return s.IsEmpty()
	}
	if len(s.words) != len(t.words) {
		return false
	}
	for i := range s.words {
		if s.base[i] != t.base[i] || s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	if t == nil {
		return s.IsEmpty()
	}
	j := 0
	for i := range s.base {
		for j < len(t.base) && t.base[j] < s.base[i] {
			j++
		}
		if j == len(t.base) || t.base[j] != s.base[i] || s.words[i]&^t.words[j] != 0 {
			return false
		}
	}
	return true
}

// Difference returns s \ t as a new set.
func (s *Set) Difference(t *Set) *Set {
	if t == nil || len(t.words) == 0 {
		return s.Copy()
	}
	out := &Set{}
	j := 0
	for i := range s.base {
		for j < len(t.base) && t.base[j] < s.base[i] {
			j++
		}
		w := s.words[i]
		if j < len(t.base) && t.base[j] == s.base[i] {
			w &^= t.words[j]
		}
		if w != 0 {
			out.base = append(out.base, s.base[i])
			out.words = append(out.words, w)
		}
	}
	return out
}

// Hash returns a content hash (FNV-1a over the block list). Equal sets hash
// equal, which is what the engine's hash-consing interner keys on.
func (s *Set) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, w := range s.words {
		h ^= uint64(s.base[i])
		h *= prime64
		h ^= w
		h *= prime64
	}
	return h
}

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	c := &Set{}
	if len(s.words) > 0 {
		c.base = append([]uint32(nil), s.base...)
		c.words = append([]uint64(nil), s.words...)
	}
	return c
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	s.base = s.base[:0]
	s.words = s.words[:0]
}

// ForEach calls f on every element in ascending order.
func (s *Set) ForEach(f func(uint32)) {
	for i, w := range s.words {
		base := s.base[i] * wordBits
		for w != 0 {
			f(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Elems returns the elements in ascending order.
func (s *Set) Elems() []uint32 {
	out := make([]uint32, 0, s.Len())
	s.ForEach(func(x uint32) { out = append(out, x) })
	return out
}

// Single returns the sole element when Len()==1.
func (s *Set) Single() (uint32, bool) {
	if len(s.words) != 1 || bits.OnesCount64(s.words[0]) != 1 {
		return 0, false
	}
	return s.base[0]*wordBits + uint32(bits.TrailingZeros64(s.words[0])), true
}

// Bytes returns the approximate heap footprint of the set in bytes,
// counting the two backing arrays and the struct header. This is the unit
// the benchmark harness aggregates for memory reporting.
func (s *Set) Bytes() uint64 {
	return 48 + uint64(cap(s.base))*4 + uint64(cap(s.words))*8
}

// String renders the set as {a, b, c} for debugging.
func (s *Set) String() string {
	elems := s.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = fmt.Sprintf("%d", e)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FromSlice builds a set from arbitrary-order IDs.
func FromSlice(xs []uint32) *Set {
	sorted := append([]uint32(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := &Set{}
	for _, x := range sorted {
		s.Add(x)
	}
	return s
}
