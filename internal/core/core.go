// Package core implements FSAM's sparse flow-sensitive points-to solver
// (paper Section 3.4, Figure 10). Points-to facts propagate only along the
// pre-computed def-use graph: top-level variables are in SSA form so their
// flows are direct, and address-taken objects flow between memory-definition
// nodes (store/call/join chis, entry chis, exit phis, memory phis) built by
// the vfg package.
//
// Rules: P-ADDR, P-COPY, P-PHI, P-LOAD, P-STORE and P-SU/WU. The load and
// store rules are gated by the solver's own (more precise) points-to sets of
// the address operands, so refinement over the pre-analysis kills spurious
// flows; strong updates apply when a store's address resolves to exactly one
// singleton object.
//
// The solver runs on the shared engine layer: points-to sets are interned
// (hash-consed) so identical sets are stored once, and memory nodes and
// statements share one SCC-topologically prioritized worklist seeded with
// the def-use edges, so producers are (heuristically) solved before their
// consumers.
package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pts"
	"repro/internal/threads"
	"repro/internal/vfg"
)

// Result holds the solved flow-sensitive points-to information.
type Result struct {
	Prog  *ir.Program
	Graph *vfg.Graph
	Model *threads.Model

	// varPts[v] is the points-to set of top-level variable v (SSA: one set
	// per variable is flow-sensitive). memPts[n] is the points-to set of
	// MemNode n's object after the definition the node represents. Both
	// hold canonical interned sets shared across slots — read-only.
	varPts []*pts.Set
	memPts []*pts.Set
	// varIDs/memIDs are the interned handles behind varPts/memPts.
	varIDs []engine.SetID
	memIDs []engine.SetID
	intern *engine.Interner

	singletons *pts.Set

	// Iterations counts worklist pops (diagnostics and benchmarks).
	Iterations int
}

// PointsToVar returns the points-to set (ObjIDs) of v; never nil.
func (r *Result) PointsToVar(v *ir.Var) *pts.Set {
	if v == nil || int(v.ID) >= len(r.varPts) || r.varPts[v.ID] == nil {
		return &pts.Set{}
	}
	return r.varPts[v.ID]
}

// PointsToMem returns the points-to set at MemNode id; never nil.
func (r *Result) PointsToMem(id int) *pts.Set {
	if id < 0 || id >= len(r.memPts) || r.memPts[id] == nil {
		return &pts.Set{}
	}
	return r.memPts[id]
}

// ObjAtExit returns the points-to set of obj at f's exit (the merged final
// state), or an empty set when f never defines obj.
func (r *Result) ObjAtExit(f *ir.Function, obj *ir.Object) *pts.Set {
	if id := r.Graph.ExitPhiNode(f, obj); id >= 0 {
		return r.PointsToMem(id)
	}
	return &pts.Set{}
}

// Obj resolves an ObjID from a points-to set.
func (r *Result) Obj(id uint32) *ir.Object { return r.Prog.Objects[id] }

// InternStats returns sharing statistics over the stored points-to slots.
func (r *Result) InternStats() *engine.RefStats {
	rs := r.intern.NewRefStats()
	for _, id := range r.varIDs {
		rs.Ref(id)
	}
	for _, id := range r.memIDs {
		rs.Ref(id)
	}
	return rs
}

// Bytes reports the memory footprint of the points-to sets (the quantity
// Table 2 reports, dominated by per-def points-to storage): each canonical
// interned set counted once plus one 4-byte handle per slot, plus the
// def-use graph.
func (r *Result) Bytes() uint64 {
	rs := r.InternStats()
	return rs.UniqueBytes + uint64(rs.Refs)*4 + r.Graph.Bytes()
}

// solver is the in-flight state.
type solver struct {
	r  *Result
	g  *vfg.Graph
	it *engine.Interner

	// Combined worklist node space: MemNode IDs in [0, numMem), statement
	// st at numMem + st.ID().
	wl     *engine.Worklist
	numMem int

	// varUses[v] lists statements to re-process when pt(v) changes.
	varUses [][]ir.Stmt
	// chiOfStore, indexed by StmtID, lists the StoreChi node IDs of each
	// store (re-gated when the address set changes).
	chiOfStore [][]int

	// retUses[f.RetVar] lists call statements consuming f's return.
	retUses [][]ir.Stmt

	emptySet *pts.Set
	cancel   *engine.Canceller
}

// Solve runs the sparse analysis over a built def-use graph.
func Solve(model *threads.Model, g *vfg.Graph) *Result {
	r, _ := SolveCtx(context.Background(), model, g)
	return r
}

// SolveCtx runs the sparse analysis under a context. On cancellation it
// returns (nil, ctx.Err()); the solve loop polls at its worklist pop.
func SolveCtx(ctx context.Context, model *threads.Model, g *vfg.Graph) (*Result, error) {
	it := engine.NewInterner()
	r := &Result{
		Prog:       model.Prog,
		Graph:      g,
		Model:      model,
		varPts:     make([]*pts.Set, len(model.Prog.Vars)),
		memPts:     make([]*pts.Set, len(g.Nodes)),
		varIDs:     make([]engine.SetID, len(model.Prog.Vars)),
		memIDs:     make([]engine.SetID, len(g.Nodes)),
		intern:     it,
		singletons: model.SingletonObjects(),
	}
	s := &solver{
		r:          r,
		g:          g,
		it:         it,
		numMem:     len(g.Nodes),
		wl:         engine.NewWorklist(len(g.Nodes) + len(model.Prog.Stmts)),
		varUses:    make([][]ir.Stmt, len(model.Prog.Vars)),
		chiOfStore: make([][]int, len(model.Prog.Stmts)),
		retUses:    make([][]ir.Stmt, len(model.Prog.Vars)),
		emptySet:   &pts.Set{},
		cancel:     engine.NewLimitedCanceller(ctx),
	}
	s.buildIndexes()
	s.seed()
	if err := s.run(); err != nil {
		return nil, err
	}
	s.snapshot()
	return r, nil
}

func (s *solver) stmtNode(st ir.Stmt) int { return s.numMem + int(st.ID()) }

func (s *solver) buildIndexes() {
	prog := s.r.Prog
	for _, st := range prog.Stmts {
		for _, u := range ir.Uses(st) {
			s.varUses[u.ID] = append(s.varUses[u.ID], st)
		}
		if c, ok := st.(*ir.Call); ok && c.Dst != nil {
			for _, callee := range s.g.Pre.CallTargets[c] {
				if callee.RetVar != nil {
					s.retUses[callee.RetVar.ID] = append(s.retUses[callee.RetVar.ID], c)
				}
			}
		}
	}
	for _, n := range s.g.Nodes {
		if n.Kind == vfg.MStoreChi {
			st := n.Stmt.ID()
			s.chiOfStore[st] = append(s.chiOfStore[st], n.ID)
		}
	}
	s.seedOrderEdges()
}

// seedOrderEdges registers the def-use structure with the worklist so its
// SCC-topological priorities mirror actual fact flow: memory edges from the
// vfg graph, SSA def→use edges between statements, call/return bindings,
// and store→chi re-gating.
func (s *solver) seedOrderEdges() {
	prog := s.r.Prog
	for id, outs := range s.g.Out {
		for _, e := range outs {
			if e.ToMem >= 0 {
				s.wl.AddEdge(id, e.ToMem)
			} else if e.ToLoad != nil {
				s.wl.AddEdge(id, s.stmtNode(e.ToLoad))
			}
		}
	}
	for _, st := range prog.Stmts {
		if v := ir.Def(st); v != nil {
			for _, u := range s.varUses[v.ID] {
				s.wl.AddEdge(s.stmtNode(st), s.stmtNode(u))
			}
		}
		switch st := st.(type) {
		case *ir.Ret:
			if st.Val != nil {
				if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
					for _, c := range s.retUses[f.RetVar.ID] {
						s.wl.AddEdge(s.stmtNode(st), s.stmtNode(c))
					}
				}
			}
		case *ir.Call:
			for _, callee := range s.g.Pre.CallTargets[st] {
				for _, p := range callee.Params {
					for _, u := range s.varUses[p.ID] {
						s.wl.AddEdge(s.stmtNode(st), s.stmtNode(u))
					}
				}
			}
		case *ir.Store:
			for _, id := range s.chiOfStore[st.ID()] {
				s.wl.AddEdge(s.stmtNode(st), id)
			}
		}
	}
}

func (s *solver) pushStmt(st ir.Stmt) { s.wl.Push(s.stmtNode(st)) }

func (s *solver) pushMem(id int) { s.wl.Push(id) }

// varSet returns the current canonical points-to set of v (read-only).
func (s *solver) varSet(v *ir.Var) *pts.Set {
	if v == nil {
		return s.emptySet
	}
	return s.it.Set(s.r.varIDs[v.ID])
}

// varChanged schedules everything depending on v.
func (s *solver) varChanged(v *ir.Var) {
	for _, st := range s.varUses[v.ID] {
		s.pushStmt(st)
		// A store's chis re-gate when its address or source changes.
		if store, ok := st.(*ir.Store); ok {
			for _, id := range s.chiOfStore[store.ID()] {
				s.pushMem(id)
			}
		}
	}
	for _, c := range s.retUses[v.ID] {
		s.pushStmt(c)
	}
}

// addVar unions set into pt(v), scheduling dependents on change.
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

// addMem unions set into a MemNode's points-to, scheduling successors.
func (s *solver) addMem(id int, set engine.SetID) {
	if set == engine.EmptySet {
		return
	}
	if u := s.it.Union(s.r.memIDs[id], set); u != s.r.memIDs[id] {
		s.r.memIDs[id] = u
		for _, e := range s.g.Out[id] {
			if e.ToMem >= 0 {
				s.pushMem(e.ToMem)
			} else if e.ToLoad != nil {
				s.pushStmt(e.ToLoad)
			}
		}
	}
}

// seed schedules every statement and representative memory node once; a
// collapsed node is never solved (snapshot copies its representative).
func (s *solver) seed() {
	for _, st := range s.r.Prog.Stmts {
		s.pushStmt(st)
	}
	for id, rep := range s.g.Rep {
		if int(rep) == id {
			s.pushMem(id)
		}
	}
}

// run drains the worklist; the pop is the cancellation poll point.
func (s *solver) run() error {
	for {
		if s.cancel.Cancelled() {
			return s.cancel.Err()
		}
		n, ok := s.wl.Pop()
		if !ok {
			break
		}
		s.r.Iterations++
		if n < s.numMem {
			s.processMem(n)
		} else {
			s.processStmt(s.r.Prog.Stmts[n-s.numMem])
		}
	}
	return nil
}

// snapshot fills each collapsed node's slot from its representative and
// materializes the interned handles into the canonical-set slices the
// Result accessors expose.
func (s *solver) snapshot() {
	for i, id := range s.r.varIDs {
		if id != engine.EmptySet {
			s.r.varPts[i] = s.it.Set(id)
		}
	}
	for i, rep := range s.g.Rep {
		if rep >= 0 {
			s.r.memIDs[i] = s.r.memIDs[rep]
		}
	}
	for i, id := range s.r.memIDs {
		if id != engine.EmptySet {
			s.r.memPts[i] = s.it.Set(id)
		}
	}
}

// processStmt applies the top-level rules (P-ADDR, P-COPY, P-PHI, P-LOAD's
// variable side, call/return copies, gep field addressing).
func (s *solver) processStmt(st ir.Stmt) {
	r := s.r
	switch st := st.(type) {
	case *ir.AddrOf:
		s.addVarObj(st.Dst, uint32(st.Obj.ID)) // P-ADDR

	case *ir.Copy:
		s.addVar(st.Dst, r.varIDs[st.Src.ID]) // P-COPY

	case *ir.Phi:
		for _, in := range st.Incoming { // P-PHI
			if in != nil {
				s.addVar(st.Dst, r.varIDs[in.ID])
			}
		}

	case *ir.Gep:
		base := s.varSet(st.Base)
		base.ForEach(func(id uint32) {
			fo := r.Prog.FieldObj(r.Prog.Objects[id], st.Field)
			s.addVarObj(st.Dst, uint32(fo.ID))
		})

	case *ir.Load: // P-LOAD
		addrSet := s.varSet(st.Addr)
		for _, e := range s.g.LoadIn[st] {
			def := s.g.Nodes[e.ToMem]
			if e.Ungated || addrSet.Has(uint32(def.Obj.ID)) {
				s.addVar(st.Dst, r.memIDs[e.ToMem])
			}
		}

	case *ir.Store:
		// P-STORE/P-SU/WU are applied at the store's chi nodes; schedule
		// them (addr/src changes reach here via varUses).
		for _, id := range s.chiOfStore[st.ID()] {
			s.pushMem(id)
		}

	case *ir.Call:
		for _, callee := range s.g.Pre.CallTargets[st] {
			n := len(st.Args)
			if len(callee.Params) < n {
				n = len(callee.Params)
			}
			for i := 0; i < n; i++ {
				s.addVar(callee.Params[i], r.varIDs[st.Args[i].ID])
			}
			if st.Dst != nil && callee.RetVar != nil {
				s.addVar(st.Dst, r.varIDs[callee.RetVar.ID])
			}
		}

	case *ir.Ret:
		if st.Val != nil {
			if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
				s.addVar(f.RetVar, r.varIDs[st.Val.ID])
			}
		}

	case *ir.Fork:
		if st.Dst != nil {
			s.addVarObj(st.Dst, uint32(st.Handle.ID))
		}
		for _, routine := range s.g.Pre.ForkTargets[st] {
			if st.Arg != nil && len(routine.Params) > 0 {
				s.addVar(routine.Params[0], r.varIDs[st.Arg.ID])
			}
		}
	}
}

// processMem applies the memory transfer at one MemNode.
func (s *solver) processMem(id int) {
	r := s.r
	n := s.g.Nodes[id]
	switch n.Kind {
	case vfg.MStoreChi:
		st := n.Stmt.(*ir.Store)
		addrSet := s.varSet(st.Addr)
		objID := uint32(n.Obj.ID)
		preAliased := s.g.Pre.PointsToVar(st.Addr).Has(objID)

		if !preAliased {
			// Ablation chi (No-Value-Flow): an unconditional weak write so
			// the configuration pays the spurious propagation cost.
			s.addMem(id, r.varIDs[st.Src.ID])
			s.mergeIn(id)
			return
		}
		// Figure 10 kill(s,p): pt(addr) = ∅ kills everything (the store
		// cannot execute soundly); a singleton {obj} kills the incoming
		// value (strong update, P-SU); otherwise the old value survives
		// (weak update, P-WU). Every branch grows monotonically as the
		// address and source sets grow, so recomputation stays sound.
		if addrSet.IsEmpty() {
			return
		}
		if addrSet.Has(objID) {
			s.addMem(id, r.varIDs[st.Src.ID]) // P-STORE
			single, ok := addrSet.Single()
			strong := ok && single == objID && s.r.singletons.Has(objID)
			if !strong {
				s.mergeIn(id)
			}
			return
		}
		// The store writes other objects only: obj passes through.
		s.mergeIn(id)

	default:
		// Entry chis, call/join chis, exit phis and memory phis merge their
		// incoming definitions.
		s.mergeIn(id)
	}
}

// mergeIn unions all incoming memory definitions into node id.
func (s *solver) mergeIn(id int) {
	for _, in := range s.g.In[id] {
		s.addMem(id, s.r.memIDs[in])
	}
}
