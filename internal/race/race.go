// Package race implements a static data-race detector as a client of FSAM,
// the paper's primary motivating application (Section 1: "data race
// detection ... built on pointer analysis"). A candidate race is a pair of
// memory accesses, at least one a store, that (1) may happen in parallel
// per the interleaving analysis, (2) may touch a common abstract object per
// the flow-sensitive points-to results, and (3) are not both protected by a
// common lock per the lock analysis.
package race

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pts"
	"repro/internal/threads"
)

// Report is one candidate data race.
type Report struct {
	Obj *ir.Object
	// First is always a store; Second is a load or store.
	First  ir.Stmt
	Second ir.Stmt
	// Threads names the thread pair of one witnessing instance.
	Threads [2]*threads.Thread
}

// Detector bundles the analyses a detection run consumes.
type Detector struct {
	Model *threads.Model
	MHP   *mhp.Result
	Locks *locks.Result // may be nil: no lock-based suppression
	// Points is the flow-sensitive result used for alias refinement; when
	// nil the pre-analysis points-to sets are used instead.
	Points *core.Result
	// Escape is the thread-escape pruning oracle: pair enumeration skips
	// objects it proves non-Shared, since a race witness needs an MHP
	// instance pair and non-Shared objects have none. Nil disables the
	// skip; reported races are identical either way.
	Escape *escape.Result
}

// addrPts returns the refined points-to set of an access address.
func (d *Detector) addrPts(addr *ir.Var) *pts.Set {
	if d.Points != nil {
		if s := d.Points.PointsToVar(addr); !s.IsEmpty() {
			return s
		}
		// The sparse result can be empty for dead code; fall back.
	}
	return d.Model.Pre.PointsToVar(addr)
}

// protected reports whether both instances sit in spans of a common lock.
func (d *Detector) protected(i1, i2 locks.Inst) bool {
	if d.Locks == nil {
		return false
	}
	s1 := d.Locks.SpansOf(i1)
	if len(s1) == 0 {
		return false
	}
	s2 := d.Locks.SpansOf(i2)
	for _, a := range s1 {
		for _, b := range s2 {
			if a.LockObj == b.LockObj {
				return true
			}
		}
	}
	return false
}

// raceRelevant reports whether obj is shared state worth reporting: globals,
// heap objects, fields of either, and address-taken locals that escape to
// other threads. Thread handles and functions are excluded.
func raceRelevant(obj *ir.Object) bool {
	switch obj.Root().Kind {
	case ir.ObjGlobal, ir.ObjHeap, ir.ObjStack:
		return true
	}
	return false
}

// access is one Load or Store with the reportable objects its address may
// point to, in ascending ID order.
type access struct {
	stmt ir.Stmt
	objs []uint32
}

// Detect enumerates candidate races, deterministically ordered.
//
// Candidate pairs come from a per-object index of the accesses, so the work
// is proportional to the aliasing (store, access) pairs rather than to
// stores × accesses. Filters apply cheapest first: objects failing
// raceRelevant or proven non-Shared by Escape never enter the index; each
// surviving statement pair runs one MHP/lock witness search; a racy pair
// yields one report per common indexed object.
func (d *Detector) Detect() []*Report {
	prog := d.Model.Prog
	indexed := make([]bool, len(prog.Objects))
	for i, obj := range prog.Objects {
		indexed[i] = raceRelevant(obj) && (d.Escape == nil || d.Escape.IsShared(obj.ID))
	}

	// Each access's address points-to set is read once; byObj maps an
	// object to the indices (into accs) of the accesses that may touch it.
	var accs []access
	byObj := make([][]int32, len(prog.Objects))
	for _, s := range prog.Stmts {
		var addr *ir.Var
		switch s := s.(type) {
		case *ir.Store:
			addr = s.Addr
		case *ir.Load:
			addr = s.Addr
		default:
			continue
		}
		i := int32(len(accs))
		var objs []uint32
		d.addrPts(addr).ForEach(func(id uint32) {
			if indexed[id] {
				objs = append(objs, id)
				byObj[id] = append(byObj[id], i)
			}
		})
		if len(objs) > 0 {
			accs = append(accs, access{stmt: s, objs: objs})
		}
	}

	// stamp[j] == si+1 once accs[j] was considered as a peer of store si.
	stamp := make([]int32, len(accs))
	var peers []int32
	var out []*Report
	for si := range accs {
		st, ok := accs[si].stmt.(*ir.Store)
		if !ok {
			continue
		}
		mark := int32(si + 1)
		peers = peers[:0]
		for _, id := range accs[si].objs {
			for _, j := range byObj[id] {
				if stamp[j] == mark {
					continue
				}
				stamp[j] = mark
				if int(j) == si {
					continue
				}
				// An unordered store/store pair is visited once, from its
				// lower-ID store.
				if st2, ok := accs[j].stmt.(*ir.Store); ok && st2.ID() < st.ID() {
					continue
				}
				peers = append(peers, j)
			}
		}
		slices.Sort(peers)
		for _, j := range peers {
			acc := accs[j].stmt
			t1, t2, ok := d.witness(st, acc)
			if !ok {
				continue
			}
			forCommon(accs[si].objs, accs[j].objs, func(id uint32) {
				out = append(out, &Report{
					Obj:     prog.Objects[id],
					First:   st,
					Second:  acc,
					Threads: [2]*threads.Thread{t1, t2},
				})
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First.ID() != out[j].First.ID() {
			return out[i].First.ID() < out[j].First.ID()
		}
		if out[i].Second.ID() != out[j].Second.ID() {
			return out[i].Second.ID() < out[j].Second.ID()
		}
		return out[i].Obj.ID < out[j].Obj.ID
	})
	return out
}

// witness returns the thread pair of the first MHP instance pair of (st,
// acc), in MHPInstances order, that no common lock protects. ok is false
// when no instance pair may happen in parallel or every one is protected.
func (d *Detector) witness(st *ir.Store, acc ir.Stmt) (t1, t2 *threads.Thread, ok bool) {
	accInsts := d.MHP.Instances(acc)
	for _, i1 := range d.MHP.Instances(st) {
		for _, i2 := range accInsts {
			if !d.MHP.MHP(i1.Thread, i1.Ctx, st, i2.Thread, i2.Ctx, acc) {
				continue
			}
			if !d.protected(locks.Inst{Thread: i1.Thread, Ctx: i1.Ctx, Stmt: st},
				locks.Inst{Thread: i2.Thread, Ctx: i2.Ctx, Stmt: acc}) {
				return i1.Thread, i2.Thread, true
			}
		}
	}
	return nil, nil, false
}

// forCommon calls f on every element common to the ascending slices a and
// b, in ascending order.
func forCommon(a, b []uint32, f func(uint32)) {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			f(a[0])
			a, b = a[1:], b[1:]
		}
	}
}
