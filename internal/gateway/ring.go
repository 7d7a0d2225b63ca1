package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the replica set. Each replica owns
// vnodes points on a uint64 circle; a key routes to the replica owning the
// first point at or after the key's hash. order() extends that to a full
// distinct-replica preference walk, which is what every routing decision in
// the gateway consumes: candidates[0] is the primary owner, candidates[1]
// the first failover/hedge sibling, and so on.
//
// The ring always contains every configured replica regardless of health —
// availability is a routing-time filter, not a ring mutation. Rebuilding
// the ring on every health flap would remap keys and shred the per-replica
// cache locality the consistent hash exists to protect.
type ring struct {
	n      int      // replica count
	points []rpoint // sorted by hash
}

type rpoint struct {
	hash    uint64
	replica int
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256. Keys are
// already sha256 content addresses, but hashing again costs little and
// keeps vnode placement uniform for arbitrary replica names.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing places vnodes points per replica. Replica identity is the index
// into the gateway's replica slice; names only seed the point positions.
func newRing(names []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &ring{n: len(names), points: make([]rpoint, 0, len(names)*vnodes)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, rpoint{hash64(fmt.Sprintf("%s#%d", name, v)), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// order returns every replica index exactly once, in the key's preference
// order: the clockwise walk from the key's hash, keeping the first
// occurrence of each replica.
func (r *ring) order(key string) []int {
	if r.n == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
