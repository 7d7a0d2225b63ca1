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
//
// Index and Solver are the only implementation of these rules. SolveCtx
// runs one Solver over the whole program; package tmod runs one per thread,
// restricted to the thread's slice, and feeds it the other threads' facts
// through the Adopt methods.
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

// Index is the read-only dependency structure of one def-use graph: the
// statements reading each variable, the calls consuming each function's
// return and the store chis of each store, all slice-indexed. It is built
// once per graph and shared by every Solver over it; tmod's concurrent
// per-thread solves read it without locking.
type Index struct {
	model  *threads.Model
	prog   *ir.Program
	g      *vfg.Graph
	numMem int

	// varUses[v] lists statements to re-process when pt(v) changes.
	varUses [][]ir.Stmt
	// retUses[f.RetVar] lists call statements consuming f's return.
	retUses [][]ir.Stmt
	// chiOfStore, indexed by StmtID, lists the StoreChi node IDs of each
	// store (re-gated when the address set changes).
	chiOfStore [][]int

	singletons *pts.Set
}

// NewIndex builds the dependency index of g over model's program.
func NewIndex(model *threads.Model, g *vfg.Graph) *Index {
	prog := model.Prog
	ix := &Index{
		model:      model,
		prog:       prog,
		g:          g,
		numMem:     len(g.Nodes),
		varUses:    make([][]ir.Stmt, len(prog.Vars)),
		retUses:    make([][]ir.Stmt, len(prog.Vars)),
		chiOfStore: make([][]int, len(prog.Stmts)),
		singletons: model.SingletonObjects(),
	}
	for _, st := range prog.Stmts {
		for _, u := range ir.Uses(st) {
			ix.varUses[u.ID] = append(ix.varUses[u.ID], st)
		}
		if c, ok := st.(*ir.Call); ok && c.Dst != nil {
			for _, callee := range g.Pre.CallTargets[c] {
				if callee.RetVar != nil {
					ix.retUses[callee.RetVar.ID] = append(ix.retUses[callee.RetVar.ID], c)
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == vfg.MStoreChi {
			st := n.Stmt.ID()
			ix.chiOfStore[st] = append(ix.chiOfStore[st], n.ID)
		}
	}
	return ix
}

// Result wraps per-slot set handles of interner it, solved over ix's graph,
// as a Result: each collapsed memory node's slot takes its representative's
// and the handles are materialized into the sets the accessors expose. The
// Result takes ownership of varIDs and memIDs.
func (ix *Index) Result(it *engine.Interner, varIDs, memIDs []engine.SetID, iterations int) *Result {
	r := &Result{
		Prog:       ix.prog,
		Graph:      ix.g,
		Model:      ix.model,
		varPts:     make([]*pts.Set, len(varIDs)),
		memPts:     make([]*pts.Set, len(memIDs)),
		varIDs:     varIDs,
		memIDs:     memIDs,
		intern:     it,
		singletons: ix.singletons,
		Iterations: iterations,
	}
	for i, id := range varIDs {
		if id != engine.EmptySet {
			r.varPts[i] = it.Set(id)
		}
	}
	for i, rep := range ix.g.Rep {
		if rep >= 0 {
			memIDs[i] = memIDs[rep]
		}
	}
	for i, id := range memIDs {
		if id != engine.EmptySet {
			r.memPts[i] = it.Set(id)
		}
	}
	return r
}

// Solver is one run of the sparse transfer rules over an Index. The
// whole-program solve runs one with no slice and no interference
// environment. tmod runs one per thread, restricted to the thread's slice,
// and between rounds feeds it the other threads' facts through the Adopt
// methods.
type Solver struct {
	ix *Index
	it *engine.Interner

	// Combined worklist node space: MemNode IDs in [0, numMem), statement
	// st at numMem + st.ID().
	wl *engine.Worklist

	varIDs []engine.SetID
	memIDs []engine.SetID

	// inStmt and inMem (by StmtID and MemNode ID) restrict scheduling to a
	// slice; nil schedules everything.
	inStmt []bool
	inMem  []bool

	// env[obj] is the interference environment: values of obj other
	// threads store, absorbed at loads that may read obj and at store chis
	// of obj that keep their incoming value. Empty unless AdoptEnv fills it.
	env map[uint32]engine.SetID

	// Iterations counts worklist pops.
	Iterations int

	emptySet *pts.Set
	cancel   *engine.Canceller
}

// NewSolver returns a solver over ix with every statement and every
// representative memory node scheduled once (a collapsed node is never
// solved: Result copies its representative). Non-nil inStmt and inMem,
// indexed by StmtID and MemNode ID, restrict the solve to the statements
// and nodes they mark. The solve polls ctx for cancellation and its budget.
func NewSolver(ctx context.Context, ix *Index, inStmt, inMem []bool) *Solver {
	s := &Solver{
		ix:       ix,
		it:       engine.NewInterner(),
		wl:       engine.NewWorklist(ix.numMem + len(ix.prog.Stmts)),
		varIDs:   make([]engine.SetID, len(ix.prog.Vars)),
		memIDs:   make([]engine.SetID, ix.numMem),
		inStmt:   inStmt,
		inMem:    inMem,
		emptySet: &pts.Set{},
		cancel:   engine.NewLimitedCanceller(ctx),
	}
	s.seedOrderEdges()
	for _, st := range ix.prog.Stmts {
		s.PushStmt(st)
	}
	for id, rep := range ix.g.Rep {
		if int(rep) == id {
			s.PushMem(id)
		}
	}
	return s
}

// Solve runs the sparse analysis over a built def-use graph.
func Solve(model *threads.Model, g *vfg.Graph) *Result {
	r, _ := SolveCtx(context.Background(), model, g)
	return r
}

// SolveCtx runs the sparse analysis under a context. On cancellation it
// returns (nil, ctx.Err()); the solve loop polls at its worklist pop.
func SolveCtx(ctx context.Context, model *threads.Model, g *vfg.Graph) (*Result, error) {
	ix := NewIndex(model, g)
	s := NewSolver(ctx, ix, nil, nil)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return ix.Result(s.it, s.varIDs, s.memIDs, s.Iterations), nil
}

func (s *Solver) stmtNode(st ir.Stmt) int { return s.ix.numMem + int(st.ID()) }

// seedOrderEdges registers the def-use structure with the worklist so its
// SCC-topological priorities mirror actual fact flow: memory edges from the
// vfg graph, SSA def→use edges between statements, call/return bindings,
// and store→chi re-gating. A slice solve registers the whole graph too;
// its masks filter at push time.
func (s *Solver) seedOrderEdges() {
	ix := s.ix
	for id, outs := range ix.g.Out {
		for _, e := range outs {
			if e.ToMem >= 0 {
				s.wl.AddEdge(id, e.ToMem)
			} else if e.ToLoad != nil {
				s.wl.AddEdge(id, s.stmtNode(e.ToLoad))
			}
		}
	}
	for _, st := range ix.prog.Stmts {
		if v := ir.Def(st); v != nil {
			for _, u := range ix.varUses[v.ID] {
				s.wl.AddEdge(s.stmtNode(st), s.stmtNode(u))
			}
		}
		switch st := st.(type) {
		case *ir.Ret:
			if st.Val != nil {
				if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
					for _, c := range ix.retUses[f.RetVar.ID] {
						s.wl.AddEdge(s.stmtNode(st), s.stmtNode(c))
					}
				}
			}
		case *ir.Call:
			for _, callee := range ix.g.Pre.CallTargets[st] {
				for _, p := range callee.Params {
					for _, u := range ix.varUses[p.ID] {
						s.wl.AddEdge(s.stmtNode(st), s.stmtNode(u))
					}
				}
			}
		case *ir.Store:
			for _, id := range ix.chiOfStore[st.ID()] {
				s.wl.AddEdge(s.stmtNode(st), id)
			}
		}
	}
}

// PushStmt schedules st if it is in the solver's slice.
func (s *Solver) PushStmt(st ir.Stmt) {
	if s.inStmt == nil || s.inStmt[st.ID()] {
		s.wl.Push(s.stmtNode(st))
	}
}

// PushMem schedules memory node id if it is in the solver's slice.
func (s *Solver) PushMem(id int) {
	if s.inMem == nil || s.inMem[id] {
		s.wl.Push(id)
	}
}

// Var returns the current points-to set of variable id (read-only).
func (s *Solver) Var(id ir.VarID) *pts.Set { return s.it.Set(s.varIDs[id]) }

// Mem returns the current points-to set of memory node id (read-only).
func (s *Solver) Mem(id int) *pts.Set { return s.it.Set(s.memIDs[id]) }

// AdoptVar raises pt(v) to set, which must contain v's current value, and
// schedules v's dependents. It reports whether the value grew.
func (s *Solver) AdoptVar(v *ir.Var, set *pts.Set) bool {
	if s.Var(v.ID).Len() == set.Len() {
		return false
	}
	s.varIDs[v.ID] = s.it.Intern(set)
	s.varChanged(v)
	return true
}

// AdoptMem raises memory node id's value to set, which must contain the
// current value, and schedules the node's successors. It reports whether
// the value grew.
func (s *Solver) AdoptMem(id int, set *pts.Set) bool {
	if s.Mem(id).Len() == set.Len() {
		return false
	}
	s.memIDs[id] = s.it.Intern(set)
	s.memChanged(id)
	return true
}

// AdoptEnv raises the interference environment of obj to set, which must
// contain its current value, and reports whether it grew. The caller
// schedules the loads and store chis that absorb obj.
func (s *Solver) AdoptEnv(obj uint32, set *pts.Set) bool {
	if s.it.Set(s.env[obj]).Len() == set.Len() {
		return false
	}
	if s.env == nil {
		s.env = map[uint32]engine.SetID{}
	}
	s.env[obj] = s.it.Intern(set)
	return true
}

// varSet returns the current canonical points-to set of v (read-only).
func (s *Solver) varSet(v *ir.Var) *pts.Set {
	if v == nil {
		return s.emptySet
	}
	return s.it.Set(s.varIDs[v.ID])
}

// varChanged schedules everything depending on v.
func (s *Solver) varChanged(v *ir.Var) {
	for _, st := range s.ix.varUses[v.ID] {
		s.PushStmt(st)
		// A store's chis re-gate when its address or source changes.
		if store, ok := st.(*ir.Store); ok {
			for _, id := range s.ix.chiOfStore[store.ID()] {
				s.PushMem(id)
			}
		}
	}
	for _, c := range s.ix.retUses[v.ID] {
		s.PushStmt(c)
	}
}

// memChanged schedules the def-use successors of memory node id.
func (s *Solver) memChanged(id int) {
	for _, e := range s.ix.g.Out[id] {
		if e.ToMem >= 0 {
			s.PushMem(e.ToMem)
		} else if e.ToLoad != nil {
			s.PushStmt(e.ToLoad)
		}
	}
}

// addVar unions set into pt(v), scheduling dependents on change.
func (s *Solver) addVar(v *ir.Var, set engine.SetID) {
	if v == nil || set == engine.EmptySet {
		return
	}
	if u := s.it.Union(s.varIDs[v.ID], set); u != s.varIDs[v.ID] {
		s.varIDs[v.ID] = u
		s.varChanged(v)
	}
}

func (s *Solver) addVarObj(v *ir.Var, obj uint32) {
	if v == nil {
		return
	}
	if u := s.it.Add(s.varIDs[v.ID], obj); u != s.varIDs[v.ID] {
		s.varIDs[v.ID] = u
		s.varChanged(v)
	}
}

// addMem unions set into a MemNode's points-to, scheduling successors.
func (s *Solver) addMem(id int, set engine.SetID) {
	if set == engine.EmptySet {
		return
	}
	if u := s.it.Union(s.memIDs[id], set); u != s.memIDs[id] {
		s.memIDs[id] = u
		s.memChanged(id)
	}
}

// Run drains the worklist; the pop is the cancellation poll point. A slice
// solve may run again after its inputs were adopted.
func (s *Solver) Run() error {
	for {
		if s.cancel.Cancelled() {
			return s.cancel.Err()
		}
		n, ok := s.wl.Pop()
		if !ok {
			return nil
		}
		s.Iterations++
		if n < s.ix.numMem {
			s.processMem(n)
		} else {
			s.processStmt(s.ix.prog.Stmts[n-s.ix.numMem])
		}
	}
}

// processStmt applies the top-level rules (P-ADDR, P-COPY, P-PHI, P-LOAD's
// variable side, call/return copies, gep field addressing).
func (s *Solver) processStmt(st ir.Stmt) {
	prog, g := s.ix.prog, s.ix.g
	switch st := st.(type) {
	case *ir.AddrOf:
		s.addVarObj(st.Dst, uint32(st.Obj.ID)) // P-ADDR

	case *ir.Copy:
		s.addVar(st.Dst, s.varIDs[st.Src.ID]) // P-COPY

	case *ir.Phi:
		for _, in := range st.Incoming { // P-PHI
			if in != nil {
				s.addVar(st.Dst, s.varIDs[in.ID])
			}
		}

	case *ir.Gep:
		base := s.varSet(st.Base)
		base.ForEach(func(id uint32) {
			fo := prog.FieldObj(prog.Objects[id], st.Field)
			s.addVarObj(st.Dst, uint32(fo.ID))
		})

	case *ir.Load: // P-LOAD
		addrSet := s.varSet(st.Addr)
		for _, e := range g.LoadIn[st] {
			def := g.Nodes[e.ToMem]
			if e.Ungated || addrSet.Has(uint32(def.Obj.ID)) {
				s.addVar(st.Dst, s.memIDs[e.ToMem])
			}
		}
		if len(s.env) > 0 {
			addrSet.ForEach(func(o uint32) {
				if inter, ok := s.env[o]; ok {
					s.addVar(st.Dst, inter)
				}
			})
		}

	case *ir.Store:
		// P-STORE/P-SU/WU are applied at the store's chi nodes; schedule
		// them (addr/src changes reach here via varUses).
		for _, id := range s.ix.chiOfStore[st.ID()] {
			s.PushMem(id)
		}

	case *ir.Call:
		for _, callee := range g.Pre.CallTargets[st] {
			n := len(st.Args)
			if len(callee.Params) < n {
				n = len(callee.Params)
			}
			for i := 0; i < n; i++ {
				s.addVar(callee.Params[i], s.varIDs[st.Args[i].ID])
			}
			if st.Dst != nil && callee.RetVar != nil {
				s.addVar(st.Dst, s.varIDs[callee.RetVar.ID])
			}
		}

	case *ir.Ret:
		if st.Val != nil {
			if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
				s.addVar(f.RetVar, s.varIDs[st.Val.ID])
			}
		}

	case *ir.Fork:
		if st.Dst != nil {
			s.addVarObj(st.Dst, uint32(st.Handle.ID))
		}
		for _, routine := range g.Pre.ForkTargets[st] {
			if st.Arg != nil && len(routine.Params) > 0 {
				s.addVar(routine.Params[0], s.varIDs[st.Arg.ID])
			}
		}
	}
}

// processMem applies the memory transfer at one MemNode.
func (s *Solver) processMem(id int) {
	n := s.ix.g.Nodes[id]
	switch n.Kind {
	case vfg.MStoreChi:
		st := n.Stmt.(*ir.Store)
		addrSet := s.varSet(st.Addr)
		objID := uint32(n.Obj.ID)
		preAliased := s.ix.g.Pre.PointsToVar(st.Addr).Has(objID)

		if !preAliased {
			// Ablation chi (No-Value-Flow): an unconditional weak write so
			// the configuration pays the spurious propagation cost.
			s.addMem(id, s.varIDs[st.Src.ID])
			s.mergeStore(id, objID)
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
			s.addMem(id, s.varIDs[st.Src.ID]) // P-STORE
			single, ok := addrSet.Single()
			strong := ok && single == objID && s.ix.singletons.Has(objID)
			if !strong {
				s.mergeStore(id, objID)
			}
			return
		}
		// The store writes other objects only: obj passes through.
		s.mergeStore(id, objID)

	default:
		// Entry chis, call/join chis, exit phis and memory phis merge their
		// incoming definitions.
		s.mergeIn(id)
	}
}

// mergeIn unions all incoming memory definitions into node id.
func (s *Solver) mergeIn(id int) {
	for _, in := range s.ix.g.In[id] {
		s.addMem(id, s.memIDs[in])
	}
}

// mergeStore merges the incoming value of store chi id of obj: its memory
// inputs and the interference environment of obj. A strong update never
// gets here, as fsam's [THREAD-VF] edges never feed a strongly-updated chi.
func (s *Solver) mergeStore(id int, obj uint32) {
	s.mergeIn(id)
	if len(s.env) > 0 {
		if inter, ok := s.env[obj]; ok {
			s.addMem(id, inter)
		}
	}
}
