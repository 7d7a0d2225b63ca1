package main

import (
	"fmt"

	fsam "repro"
	"repro/internal/icfg"
	"repro/internal/interp"
	"repro/internal/ir"
)

// gateSchedules is how many seeded interpreter schedules each input runs.
const gateSchedules = 4

// gate is the correctness reference behind the stored digests: it runs
// each input under seeded concrete schedules and requires every pointer
// value a load observes to lie in both the FSAM and the Andersen
// points-to sets of the load's destination.
//
// A run the interpreter stops early (at a null dereference, whose load it
// does not record, or in a deadlock) still executed a real prefix of an
// execution, so its observations count too; the suite programs rarely run
// to completion. Loads outside what the interpreter can reproduce are
// skipped (see beyondInterpreter).
func gate(ins []input, seed int64) error {
	checked := 0
	for _, in := range ins {
		a, err := fsam.AnalyzeSource(in.File, in.Src, fsam.Config{})
		if err != nil {
			return fmt.Errorf("gate %s: %w", in.Key, err)
		}
		if a.Precision != fsam.PrecisionSparseFS {
			return fmt.Errorf("gate %s: precision %s, want %s", in.Key, a.Precision, fsam.PrecisionSparseFS)
		}
		skip := beyondInterpreter(a)
		for k := int64(0); k < gateSchedules; k++ {
			r := interp.Run(a.Prog, seed*gateSchedules+k, 0)
			for _, obs := range r.Observations {
				if obs.Value.Obj == nil || skip[obs.Load] {
					continue
				}
				checked++
				id := uint32(obs.Value.Obj.ID)
				if !a.Result.PointsToVar(obs.Load.Dst).Has(id) {
					return fmt.Errorf("gate %s schedule %d: load [%s] observed %s outside the FSAM points-to set",
						in.Key, seed*gateSchedules+k, obs.Load, obs.Value)
				}
				if !a.Base.Pre.PointsToVar(obs.Load.Dst).Has(id) {
					return fmt.Errorf("gate %s schedule %d: load [%s] observed %s outside the Andersen points-to set",
						in.Key, seed*gateSchedules+k, obs.Load, obs.Value)
				}
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("gate: no schedule observed a checkable pointer value")
	}
	return nil
}

// beyondInterpreter returns the statements whose observations the
// interpreter cannot check against the thread model. The model takes a
// join inside a loop that mirrors a fork loop (paper Figure 11) to join
// every thread the loop forked. The interpreter keeps a loop's thread
// handles in one array cell, so it joins only the last one, and the
// others keep running past the join. Loads that may run after such a join,
// and loads of the threads it joins, can therefore observe values the
// model rules out. Both are skipped.
func beyondInterpreter(a *fsam.Analysis) map[ir.Stmt]bool {
	g := a.Base.G
	seen := map[*icfg.Node]bool{}
	var stack []*icfg.Node
	push := func(n *icfg.Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, j := range a.Base.Model.Joins {
		if j.JoinAll {
			push(g.StmtNode[j.Site])
			for _, f := range j.Joinee.Routines {
				push(g.EntryOf[f])
			}
		}
	}
	out := map[ir.Stmt]bool{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Kind == icfg.NStmt {
			out[n.Stmt] = true
			push(g.RetNode[n.Stmt]) // continue past calls without following returns
		}
		for _, e := range n.Out {
			if e.Kind == icfg.EIntra || e.Kind == icfg.ECall || e.Kind == icfg.EForkCall {
				push(e.To)
			}
		}
	}
	return out
}
