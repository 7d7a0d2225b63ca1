package andersen

import "repro/internal/ir"

// Rebind re-targets a completed Result onto fresh, a program for which
// ir.Isomorphic(r.Prog, fresh) holds and whose field objects have been
// replayed (fresh.ReplayFieldObjs(r.Prog)), so every VarID, ObjID and
// StmtID means the same thing in both programs. The interned points-to
// slices are ID-indexed and immutable, so they are shared; only the
// pointer-keyed call-resolution maps are rebuilt against fresh's
// statements and functions. This is the adoption step of the incremental
// path: the pre-analysis is the most expensive pre-interference phase,
// and under isomorphism its facts transfer exactly.
func (r *Result) Rebind(fresh *ir.Program) *Result {
	fn := func(f *ir.Function) *ir.Function {
		if f == nil {
			return nil
		}
		return fresh.FuncByName[f.Name]
	}
	nr := &Result{
		Prog:        fresh,
		varPts:      r.varPts,
		objPts:      r.objPts,
		varIDs:      r.varIDs,
		objIDs:      r.objIDs,
		intern:      r.intern,
		CallTargets: make(map[*ir.Call][]*ir.Function, len(r.CallTargets)),
		ForkTargets: make(map[*ir.Fork][]*ir.Function, len(r.ForkTargets)),
		Iterations:  r.Iterations,
		Pops:        r.Pops,
		Classes:     r.Classes,
	}
	for call, fs := range r.CallTargets {
		list := make([]*ir.Function, len(fs))
		for i, f := range fs {
			list[i] = fn(f)
		}
		nr.CallTargets[fresh.Stmts[call.ID()].(*ir.Call)] = list
	}
	for fork, fs := range r.ForkTargets {
		list := make([]*ir.Function, len(fs))
		for i, f := range fs {
			list[i] = fn(f)
		}
		nr.ForkTargets[fresh.Stmts[fork.ID()].(*ir.Fork)] = list
	}
	return nr
}
