package vfg

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// buildForkBypass implements Step 2 of the thread-oblivious def-use
// construction (paper Section 3.2): the side effects of a forked routine
// may be deferred arbitrarily, so the definition reaching the fork site can
// bypass the routine entirely and reach any use of the object between the
// fork and a join that is guaranteed to have retired the thread. The fork's
// callsite chi itself is strong (it carries the routine's completed exit
// state, which is the only state possible after the join), and these
// separate bypass edges carry the pre-fork value to the in-between uses —
// reproducing both the soundness of Figure 6(c) and the precision of
// Figure 1(c).
//
// Forks, the statements after each and the objects at a return are visited
// in ascending ID (statement) order, so edge order does not depend on map
// iteration order.
func (b *gbuilder) buildForkBypass() error {
	forks := make([]*ir.Fork, 0, len(b.forkDefs))
	for fork := range b.forkDefs {
		forks = append(forks, fork)
	}
	slices.SortFunc(forks, func(x, y *ir.Fork) int { return cmp.Compare(x.ID(), y.ID()) })
	for _, fork := range forks {
		if b.cancel.Cancelled() {
			return b.cancel.Err()
		}
		f := ir.StmtFunc(fork)
		if f == nil {
			continue
		}
		active := b.forkActiveStmts(f, fork)
		for _, blk := range f.Blocks {
			for _, s := range blk.Stmts {
				if active[s] {
					b.bypassUse(s, b.forkDefs[fork])
				}
			}
		}
	}
	return nil
}

// bypassUse adds edges from the recorded pre-fork definitions to the uses
// of the corresponding objects at statement s.
func (b *gbuilder) bypassUse(s ir.Stmt, defs map[ir.ObjID]int) {
	g := b.g
	switch s := s.(type) {
	case *ir.Load:
		g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
			if def, ok := defs[ir.ObjID(id)]; ok {
				b.addLoadEdge(def, s)
			}
		})
	case *ir.Store:
		g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
			if def, ok := defs[ir.ObjID(id)]; ok {
				if chi := g.StoreChiNode(s, g.Prog.Objects[id]); chi >= 0 {
					b.addMemEdge(def, chi)
				}
			}
		})
	case *ir.Call, *ir.Fork, *ir.Join:
		for _, callee := range b.calleesAt(s) {
			b.forEachEntryChi(callee, func(id uint32, ec int) {
				if def, ok := defs[ir.ObjID(id)]; ok {
					b.addMemEdge(def, ec)
				}
			})
		}
	case *ir.Ret:
		f := ir.StmtFunc(s)
		objs := make([]ir.ObjID, 0, len(defs))
		for objID := range defs {
			objs = append(objs, objID)
		}
		slices.Sort(objs)
		for _, objID := range objs {
			b.addMemEdge(defs[objID], g.ExitPhiNode(f, g.Prog.Objects[objID]))
		}
	}
}

// forkActiveStmts computes, per statement of f, whether the pre-fork value
// may still be current: the statement is forward-reachable from the fork
// and not every path from the fork to it passes a (handled) join of the
// fork's threads. Symmetric join-all loops count as passed once their loop
// exits (Figure 11).
func (b *gbuilder) forkActiveStmts(f *ir.Function, fork *ir.Fork) map[ir.Stmt]bool {
	model := b.g.Model

	// Join statements in f that retire this fork's threads, plus the loop
	// IDs whose exit retires them (join-all).
	joinStmts := map[*ir.Join]bool{}
	joinAllLoops := map[int]bool{}
	for _, e := range model.Joins {
		if e.Joinee.Fork != fork || ir.StmtFunc(e.Site) != f {
			continue
		}
		if e.JoinAll {
			joinAllLoops[e.Site.LoopID] = true
		} else {
			joinStmts[e.Site] = true
		}
	}

	type fact struct {
		reached    bool
		mustJoined bool
	}
	forkBlk := fork.Parent()
	if forkBlk == nil {
		return nil
	}

	// exitsJoinLoop reports whether the edge u→v leaves a join-all loop.
	exitsJoinLoop := func(u, v *ir.Block) bool {
		for _, id := range u.Loops {
			if !joinAllLoops[id] {
				continue
			}
			inV := false
			for _, vid := range v.Loops {
				if vid == id {
					inV = true
					break
				}
			}
			if !inV {
				return true
			}
		}
		return false
	}

	// transfer runs cur through blk's statements (whole block).
	transfer := func(blk *ir.Block, cur fact) fact {
		for _, s := range blk.Stmts {
			if j, ok := s.(*ir.Join); ok && joinStmts[j] {
				cur.mustJoined = true
			}
		}
		return cur
	}

	// seedOut is the fact leaving the fork's block via the region start
	// (statements after the fork).
	seedOut := fact{reached: true}
	pastFork := false
	for _, s := range forkBlk.Stmts {
		if s == ir.Stmt(fork) {
			pastFork = true
			continue
		}
		if !pastFork {
			continue
		}
		if j, ok := s.(*ir.Join); ok && joinStmts[j] {
			seedOut.mustJoined = true
		}
	}

	// Fixpoint over block-entry facts: reached meets with OR, mustJoined
	// with AND over reached predecessors (optimistic start).
	in := map[*ir.Block]fact{}
	out := map[*ir.Block]fact{forkBlk: seedOut}
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			newIn := fact{mustJoined: true}
			for _, p := range blk.Preds {
				po := out[p]
				if !po.reached {
					continue
				}
				ef := po
				if exitsJoinLoop(p, blk) {
					ef.mustJoined = true
				}
				newIn.reached = true
				newIn.mustJoined = newIn.mustJoined && ef.mustJoined
			}
			if !newIn.reached {
				newIn.mustJoined = false
			}
			if newIn != in[blk] {
				in[blk] = newIn
				changed = true
			}
			newOut := transfer(blk, newIn)
			if blk == forkBlk {
				// Merge the seed: the region always starts after the fork.
				newOut = fact{
					reached:    true,
					mustJoined: seedOut.mustJoined && (!newIn.reached || newOut.mustJoined),
				}
			}
			if newOut != out[blk] {
				out[blk] = newOut
				changed = true
			}
		}
	}

	// Final marking with converged facts.
	active := map[ir.Stmt]bool{}
	mark := func(blk *ir.Block, cur fact, fromFork bool) {
		started := !fromFork
		for _, s := range blk.Stmts {
			if !started {
				if s == ir.Stmt(fork) {
					started = true
				}
				continue
			}
			if cur.reached && !cur.mustJoined {
				active[s] = true
			}
			if j, ok := s.(*ir.Join); ok && joinStmts[j] {
				cur.mustJoined = true
			}
		}
	}
	mark(forkBlk, fact{reached: true}, true)
	for _, blk := range f.Blocks {
		if cur, ok := in[blk]; ok && cur.reached {
			mark(blk, cur, false)
		}
	}
	return active
}
