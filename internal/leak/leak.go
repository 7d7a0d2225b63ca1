// Package leak implements a static memory-leak detector as a client of the
// flow-sensitive points-to results — the third client application the paper
// motivates (Section 1 cites static memory leak detection, the SABER line
// of work, among the analyses built on pointer analysis).
//
// A heap allocation site is reported as a leak candidate when
//
//  1. its object is not reachable from any global at program exit
//     (following the flow-sensitive exit states), and
//  2. the allocation is not must-freed: some path from the allocation to
//     its function's exit performs no free() whose argument must-aliases
//     the object.
//
// Like real leak checkers this is a heuristic bug finder: condition (1)
// treats pointers held only in stack frames at exit as lost ("definitely
// lost" in valgrind terms), and (2) under-approximates freeing across
// function boundaries (an object freed by a callee or a sibling thread is
// still reported unless it is globally reachable).
package leak

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pts"
)

// Report is one candidate leak.
type Report struct {
	Obj   *ir.Object
	Alloc *ir.AddrOf
	// MustFreed and ReachableAtExit report the two conditions (both false
	// for reported leaks; populated for diagnostics on all sites via
	// Detector.Audit).
	MustFreed       bool
	ReachableAtExit bool
}

// Detector bundles the inputs.
type Detector struct {
	Prog   *ir.Program
	Points *core.Result
	// Reachable filters allocation sites to functions reachable from main
	// (nil means consider every function).
	Reachable map[*ir.Function]bool
}

// Detect returns the leak candidates, deterministically ordered.
func (d *Detector) Detect() []*Report {
	var out []*Report
	for _, r := range d.Audit() {
		if !r.MustFreed && !r.ReachableAtExit {
			out = append(out, r)
		}
	}
	return out
}

// Audit evaluates both conditions for every reachable heap allocation.
func (d *Detector) Audit() []*Report {
	reach := d.reachableAtExit()
	var out []*Report
	for _, s := range d.Prog.Stmts {
		a, ok := s.(*ir.AddrOf)
		if !ok || a.Obj.Kind != ir.ObjHeap {
			continue
		}
		f := ir.StmtFunc(a)
		if f == nil || (d.Reachable != nil && !d.Reachable[f]) {
			continue
		}
		out = append(out, &Report{
			Obj:             a.Obj,
			Alloc:           a,
			MustFreed:       d.mustFreed(a),
			ReachableAtExit: reach.Has(uint32(a.Obj.ID)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Alloc.ID() < out[j].Alloc.ID() })
	return out
}

// reachableAtExit computes the objects transitively reachable from globals
// through the flow-sensitive exit states of main.
func (d *Detector) reachableAtExit() *pts.Set {
	reach := &pts.Set{}
	var work []*ir.Object
	push := func(o *ir.Object) {
		if reach.Add(uint32(o.ID)) {
			work = append(work, o)
			// An aggregate's fields are reachable with it.
			for _, fo := range d.Prog.FieldObjs(o) {
				if reach.Add(uint32(fo.ID)) {
					work = append(work, fo)
				}
			}
		}
	}
	for _, o := range d.Prog.Objects {
		if o.Kind == ir.ObjGlobal {
			push(o)
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		d.Points.ObjAtExit(d.Prog.Main, o).ForEach(func(id uint32) {
			push(d.Prog.Objects[id])
		})
	}
	return reach
}

// mustFreed reports whether every path from the allocation to its
// function's exit performs a must-aliased free of the object.
func (d *Detector) mustFreed(alloc *ir.AddrOf) bool {
	obj := alloc.Obj
	f := ir.StmtFunc(alloc)
	allocBlk := alloc.Parent()
	if f == nil || allocBlk == nil {
		return false
	}

	isMustFree := func(s ir.Stmt) bool {
		fr, ok := s.(*ir.Free)
		if !ok {
			return false
		}
		set := d.Points.PointsToVar(fr.Ptr)
		single, isSingle := set.Single()
		return isSingle && single == uint32(obj.ID)
	}

	// Blocks guaranteed to free the object when executed from their head.
	freeBlock := map[*ir.Block]bool{}
	for _, blk := range f.Blocks {
		for _, s := range blk.Stmts {
			if isMustFree(s) {
				freeBlock[blk] = true
				break
			}
		}
	}

	// In the allocation block, only frees after the allocation count.
	pastAlloc := false
	for _, s := range allocBlk.Stmts {
		if s == ir.Stmt(alloc) {
			pastAlloc = true
			continue
		}
		if pastAlloc && isMustFree(s) {
			return true
		}
	}

	// good(b): every path from b's head to exit frees obj. Greatest
	// fixpoint (optimistic): start true, shrink.
	good := map[*ir.Block]bool{}
	for _, blk := range f.Blocks {
		good[blk] = true
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			v := good[blk]
			if freeBlock[blk] {
				continue // definitely freed here
			}
			nv := len(blk.Succs) > 0
			for _, s := range blk.Succs {
				if !good[s] {
					nv = false
					break
				}
			}
			if nv != v {
				good[blk] = nv
				changed = true
			}
		}
	}
	if len(allocBlk.Succs) == 0 {
		return false
	}
	for _, s := range allocBlk.Succs {
		if !good[s] {
			return false
		}
	}
	return true
}
