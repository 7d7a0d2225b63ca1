package vfg

import (
	"repro/internal/andersen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pts"
	"repro/internal/threads"
)

// ModRef holds, for every function, the sets of abstract objects it may
// store to (Mod) and load from (Ref), transitively including callees and —
// because the sequential view Pseq treats a fork as a call to its spawn
// routines (paper Section 3.2, Step 1) — fork routines. Join sites absorb
// the Mod sets of the joined threads' routines so their side effects become
// visible at the join (Step 3).
type ModRef struct {
	mod map[*ir.Function]*pts.Set
	ref map[*ir.Function]*pts.Set

	// joinMods caches, per handled join site, the Mod set of the joined
	// threads' start routines.
	joinMods map[*ir.Join]*pts.Set
}

// Mod returns the transitive may-store set of f (never nil).
func (mr *ModRef) Mod(f *ir.Function) *pts.Set {
	if s := mr.mod[f]; s != nil {
		return s
	}
	return &pts.Set{}
}

// Ref returns the transitive may-load set of f (never nil).
func (mr *ModRef) Ref(f *ir.Function) *pts.Set {
	if s := mr.ref[f]; s != nil {
		return s
	}
	return &pts.Set{}
}

// JoinMods returns the objects that may be modified by the threads joined
// at j (empty for unhandled joins).
func (mr *ModRef) JoinMods(j *ir.Join) *pts.Set {
	if s := mr.joinMods[j]; s != nil {
		return s
	}
	return &pts.Set{}
}

// computeModRef runs the interprocedural mod-ref fixpoint.
func computeModRef(pre *andersen.Result, model *threads.Model) *ModRef {
	mr := &ModRef{
		mod:      map[*ir.Function]*pts.Set{},
		ref:      map[*ir.Function]*pts.Set{},
		joinMods: map[*ir.Join]*pts.Set{},
	}
	prog := pre.Prog
	for _, f := range prog.Funcs {
		mr.mod[f] = &pts.Set{}
		mr.ref[f] = &pts.Set{}
	}

	// Direct effects.
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Store:
					mr.mod[f].UnionWith(pre.PointsToVar(s.Addr))
				case *ir.Load:
					mr.ref[f].UnionWith(pre.PointsToVar(s.Addr))
				}
			}
		}
	}

	// Routines joined at each handled join site.
	joinRoutines := map[*ir.Join][]*ir.Function{}
	for _, e := range model.Joins {
		joinRoutines[e.Site] = append(joinRoutines[e.Site], e.Joinee.Routines...)
	}

	// Transitive closure over calls, forks (Pseq) and joins: a function's
	// Mod and Ref flow into every function that calls, forks or joins it,
	// and a function whose sets grew is popped again to pass the growth
	// on. The worklist pops callees before their callers (SCC order), so
	// outside recursion each function is popped about once.
	idx := make(map[*ir.Function]int32, len(prog.Funcs))
	for i, f := range prog.Funcs {
		idx[f] = int32(i)
	}
	users := make([][]int32, len(prog.Funcs))
	seen := make([]int32, len(prog.Funcs)) // 1 + the last user to list it
	wl := engine.NewWorklist(len(prog.Funcs))
	for i, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				var targets []*ir.Function
				switch s := s.(type) {
				case *ir.Call:
					targets = pre.CallTargets[s]
				case *ir.Fork:
					targets = pre.ForkTargets[s]
				case *ir.Join:
					targets = joinRoutines[s]
				}
				for _, t := range targets {
					if c := idx[t]; seen[c] != int32(i)+1 {
						seen[c] = int32(i) + 1
						users[c] = append(users[c], int32(i))
						wl.AddEdge(int(c), i)
					}
				}
			}
		}
		wl.Push(i)
	}
	for {
		c, ok := wl.Pop()
		if !ok {
			break
		}
		callee := prog.Funcs[c]
		for _, u := range users[c] {
			f := prog.Funcs[u]
			grew := mr.mod[f].UnionWith(mr.mod[callee])
			if mr.ref[f].UnionWith(mr.ref[callee]) || grew {
				wl.Push(int(u))
			}
		}
	}

	for j, routines := range joinRoutines {
		set := &pts.Set{}
		for _, r := range routines {
			set.UnionWith(mr.mod[r])
		}
		mr.joinMods[j] = set
	}
	return mr
}
