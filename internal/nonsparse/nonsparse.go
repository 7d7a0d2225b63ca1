// Package nonsparse implements the paper's baseline, NONSPARSE: a
// traditional data-flow-based flow-sensitive pointer analysis in the style
// of Rugina-Rinard, extended to unstructured Pthreads programs by
// discovering parallel regions with a PCG-style procedure-level MHP
// analysis (paper Section 4.3).
//
// Unlike FSAM it maintains a points-to graph for address-taken objects at
// every ICFG program point and propagates facts blindly from each node to
// its successors — and, for thread interference, from every store into
// every node of every may-parallel procedure — without knowing whether the
// facts are needed there. This is the time and memory behaviour Table 2
// quantifies.
//
// The baseline runs on the shared engine layer: per-point graphs store
// interned SetID handles (the same set at thousands of program points costs
// one canonical copy), and nodes pop from the engine's SCC-topologically
// prioritized worklist over the ICFG.
package nonsparse

import (
	"context"

	"repro/internal/engine"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/pcg"
	"repro/internal/pipeline"
	"repro/internal/pts"
)

// pgKey indexes a per-point points-to graph: variable IDs first, then
// object IDs offset by the variable count.
type pgKey uint32

// Result holds the baseline's outcome.
type Result struct {
	Prog *ir.Program

	varIDs []engine.SetID
	// outOf[node] is the per-program-point points-to graph after the node,
	// keyed by pgKey. As in the paper's baseline (which also works on
	// partial SSA), it carries bindings for the address-taken objects at
	// every program point — what "maintains points-to information at every
	// program point" costs, and what sparsity removes. Values are interned
	// handles; the set storage itself is shared through the interner.
	outOf []map[pgKey]engine.SetID
	// inOf[node] is the persistent merged IN graph (predecessor OUTs plus
	// procedure interference input), updated incrementally.
	inOf []map[pgKey]engine.SetID

	intern *engine.Interner
	base   *pipeline.Base

	// Err is why the solve stopped before converging — the deadline,
	// cancellation or budget trip its canceller saw — and nil when it
	// converged. After a stop the partial results must not be trusted.
	Err error
	// Iterations counts node transfers.
	Iterations int
}

// PointsToVar returns the points-to set of a top-level variable.
func (r *Result) PointsToVar(v *ir.Var) *pts.Set {
	if v == nil || int(v.ID) >= len(r.varIDs) {
		return &pts.Set{}
	}
	return r.intern.Set(r.varIDs[v.ID])
}

// ObjAtExit returns obj's points-to set at f's exit node.
func (r *Result) ObjAtExit(f *ir.Function, obj *ir.Object) *pts.Set {
	exit := r.base.G.ExitOf[f]
	if exit == nil {
		return &pts.Set{}
	}
	if m := r.outOf[exit.ID]; m != nil {
		if id, ok := m[r.objKey(obj.ID)]; ok {
			return r.intern.Set(id)
		}
	}
	return &pts.Set{}
}

// InternStats returns sharing statistics over every points-to slot the
// baseline holds (per-point graphs plus top-level variables). The dedup
// ratio here is where interning pays most: the same sets recur at thousands
// of program points.
func (r *Result) InternStats() *engine.RefStats {
	rs := r.intern.NewRefStats()
	for _, id := range r.varIDs {
		rs.Ref(id)
	}
	for _, m := range r.outOf {
		for _, id := range m {
			rs.Ref(id)
		}
	}
	for _, m := range r.inOf {
		for _, id := range m {
			rs.Ref(id)
		}
	}
	return rs
}

// Bytes reports the footprint of the per-point points-to graphs — the
// quantity that blows up relative to FSAM: canonical sets once, plus map
// headers and one key+handle entry per program-point binding.
func (r *Result) Bytes() uint64 {
	rs := r.InternStats()
	total := rs.UniqueBytes + uint64(len(r.varIDs))*4
	for _, m := range r.outOf {
		if m == nil {
			continue
		}
		total += 48 + uint64(len(m))*8
	}
	for _, m := range r.inOf {
		if m == nil {
			continue
		}
		total += 48 + uint64(len(m))*8
	}
	return total
}

type solver struct {
	r    *Result
	base *pipeline.Base
	pcg  *pcg.Result
	it   *engine.Interner

	singletons *pts.Set
	// parallelWith[f] reports whether f may run concurrently with any
	// procedure (including itself); strong updates are disabled there.
	parallelWith map[*ir.Function]bool
	// parallelFuncs[f] lists the procedures that may run concurrently with
	// f (interference propagation targets).
	parallelFuncs map[*ir.Function][]*ir.Function

	// interIn[f] accumulates interference facts from stores in procedures
	// parallel with f.
	interIn map[*ir.Function]map[pgKey]engine.SetID

	varUses map[ir.VarID][]*icfg.Node
	retUses map[ir.VarID][]*icfg.Node

	nodesOfFunc map[*ir.Function][]*icfg.Node

	wl *engine.Worklist

	cancel *engine.Canceller
}

// AnalyzeCtx runs the baseline over a prepared pipeline base under a
// context. Deadline expiry, cancellation or a budget trip mid-solve stops
// the solve early with Result.Err set (standing in for the paper's
// two-hour budget); the nonsparse engine phase returns it as its failure.
func AnalyzeCtx(ctx context.Context, base *pipeline.Base) *Result {
	it := engine.NewInterner()
	r := &Result{
		Prog:   base.Prog,
		varIDs: make([]engine.SetID, len(base.Prog.Vars)),
		outOf:  make([]map[pgKey]engine.SetID, len(base.G.Nodes)),
		inOf:   make([]map[pgKey]engine.SetID, len(base.G.Nodes)),
		intern: it,
		base:   base,
	}
	s := &solver{
		r:             r,
		base:          base,
		pcg:           pcg.Analyze(base.Model),
		it:            it,
		singletons:    base.Model.SingletonObjects(),
		parallelWith:  map[*ir.Function]bool{},
		parallelFuncs: map[*ir.Function][]*ir.Function{},
		interIn:       map[*ir.Function]map[pgKey]engine.SetID{},
		varUses:       map[ir.VarID][]*icfg.Node{},
		retUses:       map[ir.VarID][]*icfg.Node{},
		nodesOfFunc:   map[*ir.Function][]*icfg.Node{},
		wl:            engine.NewWorklist(len(base.G.Nodes)),
		cancel:        engine.NewLimitedCanceller(ctx),
	}
	s.prepare()
	s.run()
	return r
}

func (s *solver) prepare() {
	g := s.base.G
	var buf []*ir.Var
	for _, n := range g.Nodes {
		s.nodesOfFunc[n.Func] = append(s.nodesOfFunc[n.Func], n)
		// The ICFG edges drive the worklist's SCC-topo priorities: a node's
		// predecessors transfer (heuristically) before it does.
		for _, e := range n.Out {
			s.wl.AddEdge(n.ID, e.To.ID)
		}
		if n.Kind != icfg.NStmt {
			continue
		}
		buf = ir.AppendUses(buf[:0], n.Stmt)
		for _, u := range buf {
			s.varUses[u.ID] = append(s.varUses[u.ID], n)
		}
		if c, ok := n.Stmt.(*ir.Call); ok && c.Dst != nil {
			for _, callee := range s.base.Pre.CallTargets[c] {
				if callee.RetVar != nil {
					s.retUses[callee.RetVar.ID] = append(s.retUses[callee.RetVar.ID], n)
				}
			}
		}
	}
	for _, f := range s.base.Prog.Funcs {
		for _, gfn := range s.base.Prog.Funcs {
			if s.pcg.MHPFuncs(f, gfn) {
				s.parallelWith[f] = true
				s.parallelFuncs[f] = append(s.parallelFuncs[f], gfn)
			}
		}
	}
	// Seed: every node processed once.
	for _, n := range g.Nodes {
		s.push(n)
	}
}

func (s *solver) push(n *icfg.Node) { s.wl.Push(n.ID) }

func (s *solver) varChanged(v *ir.Var) {
	for _, n := range s.varUses[v.ID] {
		s.push(n)
	}
	for _, n := range s.retUses[v.ID] {
		s.push(n)
	}
}

// varSet returns the current canonical points-to set of v (read-only).
func (s *solver) varSet(v *ir.Var) *pts.Set {
	return s.it.Set(s.r.varIDs[v.ID])
}

func (s *solver) addVar(v *ir.Var, set engine.SetID) {
	if v == nil || set == engine.EmptySet {
		return
	}
	if u := s.it.Union(s.r.varIDs[v.ID], set); u != s.r.varIDs[v.ID] {
		s.r.varIDs[v.ID] = u
		s.varChanged(v)
	}
}

func (s *solver) addVarObj(v *ir.Var, obj uint32) {
	if v == nil {
		return
	}
	if u := s.it.Add(s.r.varIDs[v.ID], obj); u != s.r.varIDs[v.ID] {
		s.r.varIDs[v.ID] = u
		s.varChanged(v)
	}
}

// objKey and varKey map IDs into the per-point graph key space.
func (r *Result) objKey(obj ir.ObjID) pgKey {
	return pgKey(uint32(len(r.varIDs)) + uint32(obj))
}

func (r *Result) varKey(v *ir.Var) pgKey { return pgKey(v.ID) }

// mergeOut unions (key → set) into node n's OUT graph, reporting change.
func (s *solver) mergeOut(n *icfg.Node, key pgKey, set engine.SetID) bool {
	if set == engine.EmptySet {
		return false
	}
	m := s.r.outOf[n.ID]
	if m == nil {
		m = map[pgKey]engine.SetID{}
		s.r.outOf[n.ID] = m
	}
	u := s.it.Union(m[key], set)
	if u == m[key] {
		return false
	}
	m[key] = u
	return true
}

// inView refreshes and returns node n's persistent IN graph: the merge of
// predecessor OUTs plus the interference input of its procedure. The
// returned map must not be mutated by callers.
func (s *solver) inView(n *icfg.Node) map[pgKey]engine.SetID {
	in := s.r.inOf[n.ID]
	if in == nil {
		in = map[pgKey]engine.SetID{}
		s.r.inOf[n.ID] = in
	}
	acc := func(m map[pgKey]engine.SetID) {
		for key, id := range m {
			in[key] = s.it.Union(in[key], id)
		}
	}
	for _, e := range n.In {
		if m := s.r.outOf[e.From.ID]; m != nil {
			acc(m)
		}
	}
	if m := s.interIn[n.Func]; m != nil {
		acc(m)
	}
	return in
}

func (s *solver) run() {
	for {
		id, ok := s.wl.Pop()
		if !ok {
			break
		}
		n := s.base.G.Nodes[id]
		s.r.Iterations++
		// Deadline expiry and resource-budget trips (engine.Budget on the
		// context) both stop the solve with the canceller's reason — the
		// baseline keeps a partial result either way, it never errors out
		// mid-solve.
		if s.cancel.Cancelled() {
			s.r.Err = s.cancel.Err()
			return
		}
		s.transfer(n)
	}
}

// transfer recomputes node n's OUT from its IN and statement, pushing
// successors whose IN changed.
func (s *solver) transfer(n *icfg.Node) {
	in := s.inView(n)
	changed := false

	// Identity part: everything flows through unless killed below.
	kill := map[pgKey]bool{}

	if n.Kind == icfg.NStmt {
		switch st := n.Stmt.(type) {
		case *ir.AddrOf:
			s.addVarObj(st.Dst, uint32(st.Obj.ID))
		case *ir.Copy:
			s.addVar(st.Dst, s.r.varIDs[st.Src.ID])
		case *ir.Phi:
			for _, inV := range st.Incoming {
				if inV != nil {
					s.addVar(st.Dst, s.r.varIDs[inV.ID])
				}
			}
		case *ir.Gep:
			s.varSet(st.Base).ForEach(func(id uint32) {
				fo := s.r.Prog.FieldObj(s.r.Prog.Objects[id], st.Field)
				s.addVarObj(st.Dst, uint32(fo.ID))
			})
		case *ir.Load:
			s.varSet(st.Addr).ForEach(func(id uint32) {
				if setID, ok := in[s.r.objKey(ir.ObjID(id))]; ok {
					s.addVar(st.Dst, setID)
				}
			})
		case *ir.Store:
			addr := s.varSet(st.Addr)
			src := s.r.varIDs[st.Src.ID]
			single, isSingle := addr.Single()
			strongOK := isSingle && s.singletons.Has(single) &&
				!s.parallelWith[n.Func]
			addr.ForEach(func(id uint32) {
				obj := ir.ObjID(id)
				if s.mergeOut(n, s.r.objKey(obj), src) {
					changed = true
				}
				if strongOK && uint32(obj) == single {
					kill[s.r.objKey(obj)] = true
				}
				// Interference: the store's fact flows into every node of
				// every parallel procedure.
				s.propagateInterference(n.Func, s.r.objKey(obj), src)
			})
		case *ir.Call:
			for _, callee := range s.base.Pre.CallTargets[st] {
				nn := len(st.Args)
				if len(callee.Params) < nn {
					nn = len(callee.Params)
				}
				for i := 0; i < nn; i++ {
					s.addVar(callee.Params[i], s.r.varIDs[st.Args[i].ID])
				}
				if st.Dst != nil && callee.RetVar != nil {
					s.addVar(st.Dst, s.r.varIDs[callee.RetVar.ID])
				}
			}
		case *ir.Ret:
			if st.Val != nil && n.Func.RetVar != nil {
				s.addVar(n.Func.RetVar, s.r.varIDs[st.Val.ID])
			}
		case *ir.Fork:
			if st.Dst != nil {
				s.addVarObj(st.Dst, uint32(st.Handle.ID))
			}
			for _, routine := range s.base.Pre.ForkTargets[st] {
				if st.Arg != nil && len(routine.Params) > 0 {
					s.addVar(routine.Params[0], s.r.varIDs[st.Arg.ID])
				}
			}
		}
	}

	// Pass IN through to OUT (minus strong-update kills).
	for key, id := range in {
		if kill[key] {
			continue
		}
		if s.mergeOut(n, key, id) {
			changed = true
		}
	}
	if changed {
		for _, e := range n.Out {
			s.push(e.To)
		}
	}
}

// propagateInterference merges a store's generated fact into the
// interference input of every procedure that may run in parallel with f.
func (s *solver) propagateInterference(f *ir.Function, key pgKey, src engine.SetID) {
	if src == engine.EmptySet {
		return
	}
	for _, g := range s.parallelFuncs[f] {
		m := s.interIn[g]
		if m == nil {
			m = map[pgKey]engine.SetID{}
			s.interIn[g] = m
		}
		u := s.it.Union(m[key], src)
		if u != m[key] {
			m[key] = u
			// Blind propagation: every node of g re-processes.
			for _, n := range s.nodesOfFunc[g] {
				s.push(n)
			}
		}
	}
}
