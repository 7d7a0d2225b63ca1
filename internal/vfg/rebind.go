package vfg

import (
	"repro/internal/andersen"
	"repro/internal/ir"
	"repro/internal/pts"
	"repro/internal/threads"
)

// rebind re-keys a ModRef onto fresh (a program isomorphic to the one it
// was computed for). The mod/ref sets themselves are ObjID bitsets —
// ID-stable under isomorphism — so they are shared; only the function and
// join keys are swapped.
func (mr *ModRef) rebind(fresh *ir.Program) *ModRef {
	nm := &ModRef{
		mod:      make(map[*ir.Function]*pts.Set, len(mr.mod)),
		ref:      make(map[*ir.Function]*pts.Set, len(mr.ref)),
		joinMods: make(map[*ir.Join]*pts.Set, len(mr.joinMods)),
	}
	for f, s := range mr.mod {
		nm.mod[fresh.FuncByName[f.Name]] = s
	}
	for f, s := range mr.ref {
		nm.ref[fresh.FuncByName[f.Name]] = s
	}
	for j, s := range mr.joinMods {
		nm.joinMods[fresh.Stmts[j.ID()].(*ir.Join)] = s
	}
	return nm
}

// Rebind re-targets a completed def-use graph onto fresh, a program for
// which ir.Isomorphic held and whose field objects have been replayed,
// given the rebound pre-analysis and the freshly built thread model.
// Logical and physical node IDs, Rep, the In adjacency (physical-ID lists)
// and the StmtID-keyed store-chi indexes are representation-stable and
// shared; everything pointer-typed (nodes' Obj/Stmt/Func/Blk, edges'
// ToLoad, LoadIn and the per-function index) is swapped to fresh's
// identically-numbered entities.
func (g *Graph) Rebind(fresh *ir.Program, pre *andersen.Result, model *threads.Model) *Graph {
	// ir.Isomorphic pairs the two programs' functions by index. Nodes come
	// in runs of one function, so the last pair answers most lookups.
	funcOf := make(map[*ir.Function]*ir.Function, len(fresh.Funcs))
	for i, f := range g.Prog.Funcs {
		funcOf[f] = fresh.Funcs[i]
	}
	var lastOld, lastNew *ir.Function
	fn := func(f *ir.Function) *ir.Function {
		if f != lastOld {
			lastOld, lastNew = f, funcOf[f]
		}
		return lastNew
	}
	load := func(l *ir.Load) *ir.Load {
		return fresh.Stmts[l.ID()].(*ir.Load)
	}
	ng := &Graph{
		Prog:      fresh,
		Pre:       pre,
		Model:     model,
		MR:        g.MR.rebind(fresh),
		Nodes:     make([]*MemNode, len(g.Nodes)),
		Rep:       g.Rep,
		Out:       make([][]Edge, len(g.Out)),
		In:        g.In,
		LoadIn:    make(map[*ir.Load][]Edge, len(g.LoadIn)),
		funcs:     make(map[*ir.Function]funcInfo, len(g.funcs)),
		storeChis: g.storeChis,
		extraChis: g.extraChis,

		ObliviousEdges:   g.ObliviousEdges,
		ThreadEdges:      g.ThreadEdges,
		FilteredByLock:   g.FilteredByLock,
		FilteredByVF:     g.FilteredByVF,
		FilteredByEscape: g.FilteredByEscape,

		StoredThreadEdges: g.StoredThreadEdges,
		ThreadHubs:        g.ThreadHubs,
	}
	// Nodes, out-edges and the LoadIn mirror are copied through arenas —
	// one bump allocation each instead of one heap object per node and one
	// slice per adjacency row. Rebind is on the warm re-analysis critical
	// path, and this copy dominated its allocation profile.
	arena := make([]MemNode, len(g.Nodes))
	for i, n := range g.Nodes {
		nn := &arena[i]
		nn.ID, nn.Kind, nn.Func = n.ID, n.Kind, fn(n.Func)
		nn.Access, nn.Class = n.Access, n.Class
		if n.Obj != nil {
			nn.Obj = fresh.Objects[n.Obj.ID]
		}
		if n.Stmt != nil {
			nn.Stmt = fresh.Stmts[n.Stmt.ID()]
		}
		if n.Blk != nil && nn.Func != nil {
			nn.Blk = nn.Func.Blocks[n.Blk.Index]
		}
		ng.Nodes[i] = nn
	}
	total := 0
	for _, outs := range g.Out {
		total += len(outs)
	}
	edges := make([]Edge, 0, total)
	for i, outs := range g.Out {
		if outs == nil {
			continue
		}
		start := len(edges)
		for _, e := range outs {
			if e.ToLoad != nil {
				e.ToLoad = load(e.ToLoad)
			}
			edges = append(edges, e)
		}
		ng.Out[i] = edges[start:len(edges):len(edges)]
	}
	total = 0
	for _, in := range g.LoadIn {
		total += len(in)
	}
	mirror := make([]Edge, 0, total)
	for l, in := range g.LoadIn {
		nl := load(l)
		start := len(mirror)
		for _, e := range in {
			e.ToLoad = nl
			mirror = append(mirror, e)
		}
		ng.LoadIn[nl] = mirror[start:len(mirror):len(mirror)]
	}
	for f, fi := range g.funcs {
		ng.funcs[fn(f)] = fi
	}
	return ng
}
