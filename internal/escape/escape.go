// Package escape implements the thread-escape/sharedness analysis: a
// classification of every abstract object into ThreadLocal, HandedOff, or
// Shared, computed over the pre-analysis results (Andersen points-to plus
// the static thread model). It is the pruning oracle the interference-
// bearing engines consult — fsam's thread-aware def-use construction, the
// thread-modular engine's interference publication and the race
// detector's pair enumeration all skip objects the oracle proves
// non-shared — and the fact
// base of the localonlylock/unsyncshared/escapeleak checkers.
//
// The escape propagation itself (through globals, stores into escaping
// objects, spawn arguments, and callee flows) is exactly the transitive
// closure Andersen's inclusion solve has already computed: if a thread can
// reach an object through any chain of globals, heap cells, or fork
// arguments and dereference it, the pre-analysis puts the object in that
// dereference's points-to set. What remains here is the classification
// post-pass: attribute every dereference site to the runtime thread
// instances that may execute it, and compare accessor instances pairwise
// under the thread model's may-happen-in-parallel relation.
//
// Lattice (ThreadLocal < HandedOff < Shared):
//
//   - ThreadLocal: at most one runtime thread instance ever dereferences
//     the object. No interference is possible under any memory model.
//   - HandedOff: several thread instances dereference the object, but
//     every pair is ordered by thread-level happens-before (fork-argument
//     handoff to a fully-joined thread, join-result readback). Value may
//     flow across threads, but only along HB edges — never concurrently.
//   - Shared: some pair of accessor instances (including two instances of
//     one multi-forked thread) may happen in parallel.
//
// Soundness of the attribution mirrors the engines it prunes: statements
// of functions no thread reaches are attributed to main (thread 0),
// exactly as the thread-modular engine's funcThreads fallback does, so a
// pruned engine never drops a flow the unpruned engine would have kept.
package escape

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/threads"
)

// Class is an object's sharedness verdict.
type Class uint8

const (
	// ThreadLocal objects are dereferenced by at most one runtime thread
	// instance.
	ThreadLocal Class = iota
	// HandedOff objects reach several thread instances, every pair of
	// which is ordered by thread-level happens-before.
	HandedOff
	// Shared objects have a pair of accessor instances that may happen in
	// parallel.
	Shared
)

func (c Class) String() string {
	switch c {
	case ThreadLocal:
		return "local"
	case HandedOff:
		return "handedoff"
	case Shared:
		return "shared"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Result is the computed classification.
type Result struct {
	Model *threads.Model

	// classes is indexed by ir.ObjID. Objects materialized after the
	// analysis ran (lazy field objects) fall off the end and are answered
	// conservatively as Shared.
	classes []Class

	// accessors[id] lists the distinct accessor thread IDs, sorted.
	accessors [][]int

	// NumLocal, NumHandedOff and NumShared count the classified objects.
	NumLocal     int
	NumHandedOff int
	NumShared    int
}

// Analyze classifies every object of the model's program.
func Analyze(m *threads.Model) *Result {
	n := len(m.Prog.Objects)
	r := &Result{
		Model:     m,
		classes:   make([]Class, n),
		accessors: make([][]int, n),
	}

	// Attribute every function to the threads that may execute it. A
	// function no thread reaches is attributed to main, mirroring the
	// thread-modular engine's slice attribution, so pruning decisions and
	// engine behavior can never disagree about dead code.
	funcThreads := map[*ir.Function][]int{}
	for _, t := range m.Threads {
		seen := map[*ir.Function]bool{}
		for fc := range m.Funcs(t) {
			if !seen[fc.Func] {
				seen[fc.Func] = true
				funcThreads[fc.Func] = append(funcThreads[fc.Func], t.ID)
			}
		}
	}
	for _, f := range m.Prog.Funcs {
		if len(funcThreads[f]) == 0 {
			funcThreads[f] = []int{0}
		}
	}

	// Collect accessor threads per object: every dereference of an address
	// whose Andersen points-to set contains the object counts each thread
	// executing the enclosing function as an accessor. Lock, unlock, and
	// free sites count too — they touch the object's memory, and including
	// them only widens the Shared class (never unsoundly narrows it).
	acc := make([]map[int]bool, n)
	record := func(addr *ir.Var, tids []int) {
		if addr == nil {
			return
		}
		m.Pre.PointsToVar(addr).ForEach(func(id uint32) {
			if int(id) >= n {
				return
			}
			if acc[id] == nil {
				acc[id] = map[int]bool{}
			}
			for _, tid := range tids {
				acc[id][tid] = true
			}
		})
	}
	for _, f := range m.Prog.Funcs {
		tids := funcThreads[f]
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Load:
					record(s.Addr, tids)
				case *ir.Store:
					record(s.Addr, tids)
				case *ir.Lock:
					record(s.Ptr, tids)
				case *ir.Unlock:
					record(s.Ptr, tids)
				case *ir.Free:
					record(s.Ptr, tids)
				}
			}
		}
	}

	for id := range m.Prog.Objects {
		set := acc[id]
		tids := make([]int, 0, len(set))
		for tid := range set {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		r.accessors[id] = tids

		// Instances counts runtime thread instances (a multi-forked thread
		// is at least two); shared holds once any accessor pair — including
		// two instances of one Multi thread — may run in parallel.
		instances := 0
		shared := false
		for i, a := range tids {
			ta := m.ThreadByID(a)
			w := 1
			if ta.Multi {
				w = 2
			}
			instances += w
			for _, b := range tids[i:] {
				if m.MayHappenInParallelThreads(ta, m.ThreadByID(b)) {
					shared = true
				}
			}
		}
		switch {
		case shared:
			r.classes[id] = Shared
			r.NumShared++
		case instances <= 1:
			r.classes[id] = ThreadLocal
			r.NumLocal++
		default:
			r.classes[id] = HandedOff
			r.NumHandedOff++
		}
	}
	return r
}

// ClassOf returns the object's classification. Objects the analysis never
// saw (materialized later) are conservatively Shared.
func (r *Result) ClassOf(id ir.ObjID) Class {
	if int(id) >= len(r.classes) {
		return Shared
	}
	return r.classes[id]
}

// IsShared reports whether the object may be accessed by two thread
// instances that run in parallel — the only objects for which
// statement-level interference edges can exist.
func (r *Result) IsShared(id ir.ObjID) bool { return r.ClassOf(id) == Shared }

// InterferesUnder reports whether the object's cross-thread store
// publications can be absorbed under the thread-modular engine's
// interference gate for the given memory model. Under sc the gate is
// thread-level MHP, which no HandedOff accessor pair passes; under the
// relaxed models (tso, pso) the gate also admits happens-before-ordered
// pairs, so HandedOff objects must keep publishing. ThreadLocal objects
// have no cross-instance absorber under any model.
func (r *Result) InterferesUnder(id ir.ObjID, memModel string) bool {
	switch r.ClassOf(id) {
	case Shared:
		return true
	case HandedOff:
		return memModel != "" && memModel != "sc"
	default:
		return false
	}
}

// AccessorThreads returns the sorted IDs of the threads that may
// dereference the object (empty for never-dereferenced objects).
func (r *Result) AccessorThreads(id ir.ObjID) []int {
	if int(id) >= len(r.accessors) {
		return nil
	}
	return r.accessors[id]
}

// Bytes reports the approximate footprint of the classification.
func (r *Result) Bytes() uint64 {
	total := uint64(len(r.classes))
	for _, a := range r.accessors {
		total += 24 + uint64(len(a))*8
	}
	return total
}
