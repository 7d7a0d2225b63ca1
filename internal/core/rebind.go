package core

import (
	"repro/internal/ir"
	"repro/internal/threads"
	"repro/internal/vfg"
)

// Rebind re-targets a solved Result onto fresh, a program for which
// ir.Isomorphic held, given the rebound def-use graph and the freshly
// built thread model. Every fact slice is indexed by VarID or physical
// MemNode ID — both stable under isomorphism — so the interned sets, the interner and
// the singleton summary are shared wholesale; only the program, graph and
// model handles change. The returned Result answers every query exactly
// as a from-scratch solve over fresh would.
func (r *Result) Rebind(fresh *ir.Program, g *vfg.Graph, model *threads.Model) *Result {
	return &Result{
		Prog:       fresh,
		Graph:      g,
		Model:      model,
		varPts:     r.varPts,
		memPts:     r.memPts,
		varIDs:     r.varIDs,
		memIDs:     r.memIDs,
		intern:     r.intern,
		singletons: r.singletons,
		Iterations: r.Iterations,
	}
}
