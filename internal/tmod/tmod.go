// Package tmod implements a thread-modular sparse flow-sensitive points-to
// solver in the style of Miné's thread-modular abstract interpretation and
// its flow-sensitive refinement by Kusano & Wang (arXiv:1709.10116): each
// abstract thread runs the package core sparse solver restricted to its own
// slice of the thread-oblivious def-use graph, the slices exchange facts
// through a global interference environment (each thread's accumulated
// writes to shared objects), and the whole composition iterates to an
// interference fixpoint. Rounds solve all threads concurrently — one
// goroutine per thread, each with a private interner and worklist — and the
// exchange step between rounds is sequential, so the solve is deterministic
// and race-free by construction.
//
// Relaxed memory models (arXiv:1709.10077) layer onto the exchange step:
// the gate deciding which peer threads' published stores a reading thread
// may observe widens from may-happen-in-parallel (SC) to "MHP or
// happens-before" (TSO: store buffers delay commit past a fork/join edge)
// to "always" (PSO: per-location buffers give up inter-location ordering,
// collapsing onto the thread-oblivious composable bound). By construction
// pt(sc) ⊆ pt(tso) ⊆ pt(pso) pointwise.
package tmod

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/pts"
	"repro/internal/threads"
	"repro/internal/vfg"
)

// Memory consistency models. The model widens the interference gate only;
// intra-thread (program-order) flows are identical under all three.
const (
	// MemModelSC is sequential consistency: a thread observes a peer's
	// published stores only when the two may run in parallel.
	MemModelSC = "sc"
	// MemModelTSO adds store-buffer-induced visibility: a store buffered
	// before a fork/join edge may commit after it, so happens-before
	// ordered peers leak their intermediate store values too.
	MemModelTSO = "tso"
	// MemModelPSO drops inter-location store ordering entirely: every
	// peer's published store is observable, the composable upper bound.
	MemModelPSO = "pso"
)

// MemModels lists the supported memory models, most to least constrained.
func MemModels() []string { return []string{MemModelSC, MemModelTSO, MemModelPSO} }

// Options configure a thread-modular solve.
type Options struct {
	// MemModel is MemModelSC, MemModelTSO or MemModelPSO ("" means SC).
	MemModel string
	// Sequential runs each round's per-thread solves one at a time instead
	// of one goroutine per thread. Results are identical either way (the
	// exchange is a barrier and every transfer is a monotone union); the
	// switch exists for determinism tests and the bench harness'
	// parallel-vs-sequential comparison.
	Sequential bool
	// Escape is the thread-escape pruning oracle: interference publication
	// skips objects whose stores cannot be absorbed under the configured
	// memory model's gate (non-Shared under sc, ThreadLocal under tso and
	// pso, where the gate also admits happens-before-ordered pairs). Nil
	// disables pruning; pruned and unpruned fixpoints are identical.
	Escape *escape.Result
}

// Result holds the composed thread-modular points-to information. The query
// surface mirrors core.Result so the facade can adapt either uniformly.
type Result struct {
	Prog  *ir.Program
	Graph *vfg.Graph
	Model *threads.Model

	// MemModel is the memory model the solve ran under.
	MemModel string
	// Rounds counts interference rounds to fixpoint (≥ 1).
	Rounds int
	// NumThreads is the number of per-thread solvers composed.
	NumThreads int
	// Iterations counts worklist pops summed over all threads and rounds.
	Iterations int
	// PrunedPubs counts (thread, object) interference publications the
	// escape oracle skipped, summed over all rounds.
	PrunedPubs int

	// RoundWall is the wall time of each round's solve step. ThreadWall and
	// ThreadPops are per-thread totals across all rounds, indexed like
	// Model.Threads.
	RoundWall  []time.Duration
	ThreadWall []time.Duration
	ThreadPops []uint64

	varPts []*pts.Set
	memPts []*pts.Set
	varIDs []engine.SetID
	memIDs []engine.SetID
	intern *engine.Interner

	singletons *pts.Set
}

// PointsToVar returns the composed points-to set (ObjIDs) of v; never nil.
func (r *Result) PointsToVar(v *ir.Var) *pts.Set {
	if v == nil || int(v.ID) >= len(r.varPts) || r.varPts[v.ID] == nil {
		return &pts.Set{}
	}
	return r.varPts[v.ID]
}

// PointsToMem returns the composed points-to set at MemNode id; never nil.
func (r *Result) PointsToMem(id int) *pts.Set {
	if id < 0 || id >= len(r.memPts) || r.memPts[id] == nil {
		return &pts.Set{}
	}
	return r.memPts[id]
}

// ObjAtExit returns the composed points-to set of obj at f's exit, or an
// empty set when f never defines obj.
func (r *Result) ObjAtExit(f *ir.Function, obj *ir.Object) *pts.Set {
	if id := r.Graph.ExitPhiNode(f, obj); id >= 0 {
		return r.PointsToMem(id)
	}
	return &pts.Set{}
}

// Obj resolves an ObjID from a points-to set.
func (r *Result) Obj(id uint32) *ir.Object { return r.Prog.Objects[id] }

// InternStats returns sharing statistics over the composed points-to slots.
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

// Bytes reports the memory footprint of the composed points-to sets plus
// the shared def-use graph (same accounting as core.Result.Bytes).
func (r *Result) Bytes() uint64 {
	rs := r.InternStats()
	return rs.UniqueBytes + uint64(rs.Refs)*4 + r.Graph.Bytes()
}

// memSync is one node the exchange step must reconcile across threads:
// either a node several threads' slices share (all owners converge on the
// union) or a boundary node feeding a slice from outside it (consumers
// adopt the owners' union).
type memSync struct {
	node    int
	owners  []int // threads whose slice contains the node
	targets []int // threads injected with the owners' union
}

// coordinator drives the interference fixpoint over the per-thread solvers.
type coordinator struct {
	r     *Result
	g     *vfg.Graph
	model *threads.Model
	prog  *ir.Program
	opt   Options

	solvers []*threadSolver

	// Shared indexes, read-only while the per-thread goroutines run.
	varUses    map[ir.VarID][]ir.Stmt
	chiOfStore map[*ir.Store][]int
	retUses    map[ir.VarID][]ir.Stmt
	singletons *pts.Set
	numMem     int

	// funcThreads maps each function to the threads executing it.
	funcThreads map[*ir.Function][]int

	memSyncs []memSync

	// gateOK[tp][tr] caches gate(tp → tr) under opt.MemModel.
	gateOK [][]bool

	cancel *engine.Canceller
}

// threadSolver is one thread's sparse solver over its slice of the shared
// graph. It mirrors the package core solver rule for rule; the differences
// are slice-filtered scheduling, the private interner/worklist (goroutine
// isolation), and interference absorption at loads and store chis.
type threadSolver struct {
	c      *coordinator
	thread *threads.Thread

	it *engine.Interner
	wl *engine.Worklist

	varIDs []engine.SetID
	memIDs []engine.SetID

	// interIn[obj] is this thread's interference environment: the interned
	// union of every gated peer's published stores of obj. Written only by
	// the (sequential) exchange step, read during the solve.
	interIn map[uint32]engine.SetID

	inStmt []bool // slice membership by ir.StmtID
	inMem  []bool // slice membership by MemNode ID

	// varRelevant marks variables some in-slice transfer reads; only those
	// receive the global var union at exchange time.
	varRelevant []bool

	sliceChis  []int // in-slice MStoreChi node IDs (the publication sites)
	loadsOfObj map[uint32][]*ir.Load
	chisOfObj  map[uint32][]int
	absorbObjs []uint32 // sorted keys of loadsOfObj ∪ chisOfObj

	emptySet   *pts.Set
	cancel     *engine.Canceller
	iterations int
	wall       time.Duration
	err        error
}

// Solve runs the thread-modular analysis over a thread-oblivious def-use
// graph (vfg.Options{ThreadOblivious: true}).
func Solve(model *threads.Model, g *vfg.Graph, opt Options) *Result {
	r, _ := SolveCtx(context.Background(), model, g, opt)
	return r
}

// SolveCtx runs the thread-modular analysis under a context. On
// cancellation (or budget/step-limit trips) it returns (nil, err); the
// per-thread solve loops poll at their worklist pops and the coordinator
// polls between rounds.
func SolveCtx(ctx context.Context, model *threads.Model, g *vfg.Graph, opt Options) (*Result, error) {
	if opt.MemModel == "" {
		opt.MemModel = MemModelSC
	}
	r := &Result{
		Prog:       model.Prog,
		Graph:      g,
		Model:      model,
		MemModel:   opt.MemModel,
		varPts:     make([]*pts.Set, len(model.Prog.Vars)),
		memPts:     make([]*pts.Set, len(g.Nodes)),
		varIDs:     make([]engine.SetID, len(model.Prog.Vars)),
		memIDs:     make([]engine.SetID, len(g.Nodes)),
		intern:     engine.NewInterner(),
		singletons: model.SingletonObjects(),
	}
	c := &coordinator{
		r:          r,
		g:          g,
		model:      model,
		prog:       model.Prog,
		opt:        opt,
		varUses:    map[ir.VarID][]ir.Stmt{},
		chiOfStore: map[*ir.Store][]int{},
		retUses:    map[ir.VarID][]ir.Stmt{},
		singletons: r.singletons,
		numMem:     len(g.Nodes),
		cancel:     engine.NewLimitedCanceller(ctx),
	}
	c.buildIndexes()
	c.buildSolvers(ctx)
	c.buildSyncs()
	c.buildGates()
	if err := c.run(); err != nil {
		return nil, err
	}
	c.snapshot()
	return r, nil
}

// buildIndexes constructs the slice-independent dependency indexes shared
// read-only by every thread, and pre-materializes every field object a Gep
// could demand — ir.Program.FieldObj creates field objects lazily (it
// mutates the program), so materializing the closure up front keeps the
// concurrent solves read-only. The solver's base sets refine the
// pre-analysis, so Pre.PointsToVar(gep.Base) covers every object any
// thread's Gep transfer can see.
func (c *coordinator) buildIndexes() {
	for _, st := range c.prog.Stmts {
		for _, u := range ir.Uses(st) {
			c.varUses[u.ID] = append(c.varUses[u.ID], st)
		}
		switch st := st.(type) {
		case *ir.Call:
			if st.Dst != nil {
				for _, callee := range c.g.Pre.CallTargets[st] {
					if callee.RetVar != nil {
						c.retUses[callee.RetVar.ID] = append(c.retUses[callee.RetVar.ID], st)
					}
				}
			}
		case *ir.Gep:
			c.g.Pre.PointsToVar(st.Base).ForEach(func(id uint32) {
				c.prog.FieldObj(c.prog.Objects[id], st.Field)
			})
		}
	}
	for _, n := range c.g.Nodes {
		if n.Kind == vfg.MStoreChi {
			st := n.Stmt.(*ir.Store)
			c.chiOfStore[st] = append(c.chiOfStore[st], n.ID)
		}
	}
}

// buildSolvers computes the per-thread slices and constructs one solver per
// abstract thread. A function belongs to the slice of every thread whose
// context-sensitive walk reaches it; functions no thread reaches (dead
// code the graph still models) and statements outside any function land in
// the main thread's slice, so every node is solved by someone and a
// single-threaded program degenerates to exactly the whole-program solve.
func (c *coordinator) buildSolvers(ctx context.Context) {
	c.funcThreads = map[*ir.Function][]int{}
	for ti, th := range c.model.Threads {
		seen := map[*ir.Function]bool{}
		for fc := range c.model.Funcs(th) {
			if fc.Func != nil && !seen[fc.Func] {
				seen[fc.Func] = true
				c.funcThreads[fc.Func] = append(c.funcThreads[fc.Func], ti)
			}
		}
	}
	for _, f := range c.prog.Funcs {
		if len(c.funcThreads[f]) == 0 {
			c.funcThreads[f] = []int{0}
		}
	}

	c.solvers = make([]*threadSolver, len(c.model.Threads))
	for ti, th := range c.model.Threads {
		t := &threadSolver{
			c:           c,
			thread:      th,
			it:          engine.NewInterner(),
			wl:          engine.NewWorklist(c.numMem + len(c.prog.Stmts)),
			varIDs:      make([]engine.SetID, len(c.prog.Vars)),
			memIDs:      make([]engine.SetID, len(c.g.Nodes)),
			interIn:     map[uint32]engine.SetID{},
			inStmt:      make([]bool, len(c.prog.Stmts)),
			inMem:       make([]bool, len(c.g.Nodes)),
			varRelevant: make([]bool, len(c.prog.Vars)),
			loadsOfObj:  map[uint32][]*ir.Load{},
			chisOfObj:   map[uint32][]int{},
			emptySet:    &pts.Set{},
			cancel:      engine.NewLimitedCanceller(ctx),
		}
		c.solvers[ti] = t
		t.buildSlice(ti)
		t.seedOrderEdges()
		t.seed()
	}
}

// buildSlice marks the statements and memory nodes of thread ti's slice and
// derives the slice-local indexes (relevant vars, publication chis,
// interference absorbers).
func (t *threadSolver) buildSlice(ti int) {
	c := t.c
	inThread := func(f *ir.Function) bool {
		if f == nil {
			return ti == 0
		}
		for _, o := range c.funcThreads[f] {
			if o == ti {
				return true
			}
		}
		return false
	}
	for _, st := range c.prog.Stmts {
		if !inThread(ir.StmtFunc(st)) {
			continue
		}
		t.inStmt[st.ID()] = true
		for _, u := range ir.Uses(st) {
			t.varRelevant[u.ID] = true
		}
		switch st := st.(type) {
		case *ir.Call:
			if st.Dst != nil {
				for _, callee := range c.g.Pre.CallTargets[st] {
					if callee.RetVar != nil {
						t.varRelevant[callee.RetVar.ID] = true
					}
				}
			}
		case *ir.Load:
			l := st
			c.g.Pre.PointsToVar(l.Addr).ForEach(func(o uint32) {
				t.loadsOfObj[o] = append(t.loadsOfObj[o], l)
			})
		}
	}
	for id, n := range c.g.Nodes {
		if !inThread(n.Func) {
			continue
		}
		t.inMem[id] = true
		if n.Kind == vfg.MStoreChi {
			o := uint32(n.Obj.ID)
			t.sliceChis = append(t.sliceChis, id)
			t.chisOfObj[o] = append(t.chisOfObj[o], id)
		}
	}
	objs := map[uint32]bool{}
	for o := range t.loadsOfObj {
		objs[o] = true
	}
	for o := range t.chisOfObj {
		objs[o] = true
	}
	t.absorbObjs = make([]uint32, 0, len(objs))
	for o := range objs {
		t.absorbObjs = append(t.absorbObjs, o)
	}
	sort.Slice(t.absorbObjs, func(i, j int) bool { return t.absorbObjs[i] < t.absorbObjs[j] })
}

// buildSyncs derives the exchange step's memory-node reconciliation list:
// nodes owned by several slices, and out-of-slice nodes with a def-use edge
// into some slice (the boundary frontier). Together they guarantee every
// in-slice transfer sees the global value of each direct input, which is
// what makes the converged union a post-fixpoint of the whole-program
// system (see DESIGN.md §16).
func (c *coordinator) buildSyncs() {
	needers := map[int]map[int]bool{}
	need := func(node, ti int) {
		if c.solvers[ti].inMem[node] {
			return
		}
		m := needers[node]
		if m == nil {
			m = map[int]bool{}
			needers[node] = m
		}
		m[ti] = true
	}
	for id, outs := range c.g.Out {
		for _, e := range outs {
			var consumer *ir.Function
			if e.ToMem >= 0 {
				consumer = c.g.Nodes[e.ToMem].Func
			} else if e.ToLoad != nil {
				consumer = ir.StmtFunc(e.ToLoad)
			} else {
				continue
			}
			if consumer == nil {
				need(id, 0)
				continue
			}
			for _, ti := range c.funcThreads[consumer] {
				need(id, ti)
			}
		}
	}
	for id, n := range c.g.Nodes {
		owners := c.funcThreads[n.Func]
		if n.Func == nil {
			owners = []int{0}
		}
		nd := needers[id]
		if len(owners) < 2 && len(nd) == 0 {
			continue
		}
		ms := memSync{node: id, owners: owners}
		if len(owners) >= 2 {
			ms.targets = append(ms.targets, owners...)
		}
		for ti := range nd {
			ms.targets = append(ms.targets, ti)
		}
		sort.Ints(ms.targets)
		c.memSyncs = append(c.memSyncs, ms)
	}
	sort.Slice(c.memSyncs, func(i, j int) bool { return c.memSyncs[i].node < c.memSyncs[j].node })
}

// buildGates caches gate(tp → tr): may thread tr observe stores published
// by thread tp? Same-thread interference needs tp to abstract several
// runtime threads (Multi) under every model — a runtime thread reading its
// own buffered writes sees program order even under PSO (store
// forwarding). Across threads the gate widens with the model: SC admits
// parallel peers, TSO additionally leaks buffered stores across
// happens-before edges, PSO admits everything.
func (c *coordinator) buildGates() {
	n := len(c.solvers)
	c.gateOK = make([][]bool, n)
	for i := range c.gateOK {
		c.gateOK[i] = make([]bool, n)
		tp := c.solvers[i].thread
		for j := range c.gateOK[i] {
			tr := c.solvers[j].thread
			switch {
			case tp == tr:
				c.gateOK[i][j] = tp.Multi
			case c.opt.MemModel == MemModelPSO:
				c.gateOK[i][j] = true
			case c.opt.MemModel == MemModelTSO:
				c.gateOK[i][j] = c.model.MayHappenInParallelThreads(tp, tr) ||
					c.model.HappensBefore(tp, tr)
			default: // sc
				c.gateOK[i][j] = c.model.MayHappenInParallelThreads(tp, tr)
			}
		}
	}
}

// run iterates rounds to the interference fixpoint: solve every thread's
// slice (concurrently unless Options.Sequential), then exchange global var
// unions, boundary/shared memory values and gated interference; stop when
// an exchange injects nothing new.
func (c *coordinator) run() error {
	for {
		if c.cancel.Cancelled() {
			return c.cancel.Err()
		}
		c.r.Rounds++
		t0 := time.Now()
		if c.opt.Sequential {
			for _, t := range c.solvers {
				if err := t.run(); err != nil {
					return err
				}
			}
		} else {
			var wg sync.WaitGroup
			for _, t := range c.solvers {
				wg.Add(1)
				go func(t *threadSolver) {
					defer wg.Done()
					t.err = t.run()
				}(t)
			}
			wg.Wait()
			for _, t := range c.solvers {
				if t.err != nil {
					return t.err
				}
			}
		}
		c.r.RoundWall = append(c.r.RoundWall, time.Since(t0))
		if !c.exchange() {
			return nil
		}
	}
}

// exchange is the sequential barrier between rounds. Every injection is a
// monotone union interned into the receiving thread's private interner, so
// the order of injections cannot change the fixpoint. It returns whether
// anything changed; a quiet exchange is the termination condition.
func (c *coordinator) exchange() bool {
	changed := false
	scratch := &pts.Set{}

	// Top-level variables are SSA and thread-global: every thread that
	// reads one adopts the union of all threads' values. Locality (a var
	// only one thread touches) falls out — the union equals the owner's
	// value and the length check skips the re-intern.
	for vi, v := range c.prog.Vars {
		scratch.Clear()
		for _, t := range c.solvers {
			if id := t.varIDs[vi]; id != engine.EmptySet {
				scratch.UnionWith(t.it.Set(id))
			}
		}
		if scratch.IsEmpty() {
			continue
		}
		glen := scratch.Len()
		for _, t := range c.solvers {
			if !t.varRelevant[vi] || t.it.Set(t.varIDs[vi]).Len() == glen {
				continue
			}
			t.varIDs[vi] = t.it.Intern(scratch)
			t.varChanged(v)
			changed = true
		}
	}

	// Shared and boundary memory nodes: reconcile each onto the owners'
	// union (local values are always subsets of it, so a length match
	// means equality).
	for i := range c.memSyncs {
		ms := &c.memSyncs[i]
		scratch.Clear()
		for _, ti := range ms.owners {
			if id := c.solvers[ti].memIDs[ms.node]; id != engine.EmptySet {
				scratch.UnionWith(c.solvers[ti].it.Set(id))
			}
		}
		if scratch.IsEmpty() {
			continue
		}
		glen := scratch.Len()
		for _, ti := range ms.targets {
			t := c.solvers[ti]
			if t.it.Set(t.memIDs[ms.node]).Len() == glen {
				continue
			}
			t.memIDs[ms.node] = t.it.Intern(scratch)
			for _, e := range c.g.Out[ms.node] {
				if e.ToMem >= 0 {
					t.pushMem(e.ToMem)
				} else if e.ToLoad != nil {
					t.pushStmt(e.ToLoad)
				}
			}
			changed = true
		}
	}

	// Interference: each thread publishes, per shared object, the union of
	// its store-chi values (everything it may ever have written there —
	// flow-sensitivity inside the thread, flow-insensitive publication, the
	// standard thread-modular abstraction). Receivers gated by the memory
	// model absorb the union at their loads and weak-update chis.
	pubs := make([]map[uint32]*pts.Set, len(c.solvers))
	for ti, t := range c.solvers {
		m := map[uint32]*pts.Set{}
		for _, nid := range t.sliceChis {
			id := t.memIDs[nid]
			if id == engine.EmptySet {
				continue
			}
			o := uint32(c.g.Nodes[nid].Obj.ID)
			// Thread-escape pruning: skip publications no receiver's gate
			// can absorb. The oracle's accessor attribution matches the
			// slice attribution (dead functions to main), so every gated
			// absorber of o is an accessor and the gate check below would
			// reject each of these pairs anyway.
			if c.opt.Escape != nil && !c.opt.Escape.InterferesUnder(ir.ObjID(o), c.opt.MemModel) {
				c.r.PrunedPubs++
				continue
			}
			if m[o] == nil {
				m[o] = &pts.Set{}
			}
			m[o].UnionWith(t.it.Set(id))
		}
		pubs[ti] = m
	}
	for ri, tr := range c.solvers {
		for _, o := range tr.absorbObjs {
			scratch.Clear()
			for pi := range c.solvers {
				if !c.gateOK[pi][ri] {
					continue
				}
				if s := pubs[pi][o]; s != nil {
					scratch.UnionWith(s)
				}
			}
			if scratch.IsEmpty() {
				continue
			}
			glen := scratch.Len()
			if cur, ok := tr.interIn[o]; ok && tr.it.Set(cur).Len() == glen {
				continue
			}
			tr.interIn[o] = tr.it.Intern(scratch)
			for _, l := range tr.loadsOfObj[o] {
				tr.pushStmt(l)
			}
			for _, nid := range tr.chisOfObj[o] {
				tr.pushMem(nid)
			}
			changed = true
		}
	}
	return changed
}

// snapshot composes the final result: per slot, the union of every
// thread's converged value, interned into the result's own canonical
// interner.
func (c *coordinator) snapshot() {
	it := c.r.intern
	scratch := &pts.Set{}
	for vi := range c.r.varIDs {
		scratch.Clear()
		for _, t := range c.solvers {
			if id := t.varIDs[vi]; id != engine.EmptySet {
				scratch.UnionWith(t.it.Set(id))
			}
		}
		if scratch.IsEmpty() {
			continue
		}
		id := it.Intern(scratch)
		c.r.varIDs[vi] = id
		c.r.varPts[vi] = it.Set(id)
	}
	for mi := range c.r.memIDs {
		scratch.Clear()
		for _, t := range c.solvers {
			if id := t.memIDs[mi]; id != engine.EmptySet {
				scratch.UnionWith(t.it.Set(id))
			}
		}
		if scratch.IsEmpty() {
			continue
		}
		id := it.Intern(scratch)
		c.r.memIDs[mi] = id
		c.r.memPts[mi] = it.Set(id)
	}
	c.r.NumThreads = len(c.solvers)
	for _, t := range c.solvers {
		c.r.Iterations += t.iterations
		c.r.ThreadPops = append(c.r.ThreadPops, t.wl.Pops())
		c.r.ThreadWall = append(c.r.ThreadWall, t.wall)
	}
}

func (t *threadSolver) stmtNode(st ir.Stmt) int { return t.c.numMem + int(st.ID()) }

// seedOrderEdges registers the full def-use structure with this thread's
// worklist so its SCC-topological priorities mirror fact flow; membership
// filtering happens at push time, so sharing the global edge set is safe.
func (t *threadSolver) seedOrderEdges() {
	c := t.c
	for id, outs := range c.g.Out {
		for _, e := range outs {
			if e.ToMem >= 0 {
				t.wl.AddEdge(id, e.ToMem)
			} else if e.ToLoad != nil {
				t.wl.AddEdge(id, t.stmtNode(e.ToLoad))
			}
		}
	}
	for _, st := range c.prog.Stmts {
		if v := ir.Def(st); v != nil {
			for _, u := range c.varUses[v.ID] {
				t.wl.AddEdge(t.stmtNode(st), t.stmtNode(u))
			}
		}
		switch st := st.(type) {
		case *ir.Ret:
			if st.Val != nil {
				if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
					for _, cl := range c.retUses[f.RetVar.ID] {
						t.wl.AddEdge(t.stmtNode(st), t.stmtNode(cl))
					}
				}
			}
		case *ir.Call:
			for _, callee := range c.g.Pre.CallTargets[st] {
				for _, p := range callee.Params {
					for _, u := range c.varUses[p.ID] {
						t.wl.AddEdge(t.stmtNode(st), t.stmtNode(u))
					}
				}
			}
		case *ir.Store:
			for _, id := range c.chiOfStore[st] {
				t.wl.AddEdge(t.stmtNode(st), id)
			}
		}
	}
}

func (t *threadSolver) pushStmt(st ir.Stmt) {
	if t.inStmt[st.ID()] {
		t.wl.Push(t.stmtNode(st))
	}
}

func (t *threadSolver) pushMem(id int) {
	if t.inMem[id] {
		t.wl.Push(id)
	}
}

func (t *threadSolver) varSet(v *ir.Var) *pts.Set {
	if v == nil {
		return t.emptySet
	}
	return t.it.Set(t.varIDs[v.ID])
}

func (t *threadSolver) varChanged(v *ir.Var) {
	for _, st := range t.c.varUses[v.ID] {
		t.pushStmt(st)
		if store, ok := st.(*ir.Store); ok {
			for _, id := range t.c.chiOfStore[store] {
				t.pushMem(id)
			}
		}
	}
	for _, cl := range t.c.retUses[v.ID] {
		t.pushStmt(cl)
	}
}

func (t *threadSolver) addVar(v *ir.Var, set engine.SetID) {
	if v == nil || set == engine.EmptySet {
		return
	}
	if u := t.it.Union(t.varIDs[v.ID], set); u != t.varIDs[v.ID] {
		t.varIDs[v.ID] = u
		t.varChanged(v)
	}
}

func (t *threadSolver) addVarObj(v *ir.Var, obj uint32) {
	if v == nil {
		return
	}
	if u := t.it.Add(t.varIDs[v.ID], obj); u != t.varIDs[v.ID] {
		t.varIDs[v.ID] = u
		t.varChanged(v)
	}
}

func (t *threadSolver) addMem(id int, set engine.SetID) {
	if set == engine.EmptySet {
		return
	}
	if u := t.it.Union(t.memIDs[id], set); u != t.memIDs[id] {
		t.memIDs[id] = u
		for _, e := range t.c.g.Out[id] {
			if e.ToMem >= 0 {
				t.pushMem(e.ToMem)
			} else if e.ToLoad != nil {
				t.pushStmt(e.ToLoad)
			}
		}
	}
}

// absorb unions this thread's interference environment for obj into memory
// node id — the thread-modular stand-in for fsam's gated [THREAD-VF] edges,
// applied at exactly the program points those edges target.
func (t *threadSolver) absorb(id int, obj uint32) {
	if inter, ok := t.interIn[obj]; ok {
		t.addMem(id, inter)
	}
}

// seed schedules every in-slice statement and memory node once.
func (t *threadSolver) seed() {
	for _, st := range t.c.prog.Stmts {
		t.pushStmt(st)
	}
	for id := range t.c.g.Nodes {
		t.pushMem(id)
	}
}

// run drains this thread's worklist; the pop is the cancellation poll.
func (t *threadSolver) run() error {
	t0 := time.Now()
	defer func() { t.wall += time.Since(t0) }()
	for {
		if t.cancel.Cancelled() {
			return t.cancel.Err()
		}
		n, ok := t.wl.Pop()
		if !ok {
			return nil
		}
		t.iterations++
		if n < t.c.numMem {
			t.processMem(n)
		} else {
			t.processStmt(t.c.prog.Stmts[n-t.c.numMem])
		}
	}
}

// processStmt applies the top-level rules; identical to the whole-program
// solver except that loads additionally absorb gated interference.
func (t *threadSolver) processStmt(st ir.Stmt) {
	c := t.c
	switch st := st.(type) {
	case *ir.AddrOf:
		t.addVarObj(st.Dst, uint32(st.Obj.ID)) // P-ADDR

	case *ir.Copy:
		t.addVar(st.Dst, t.varIDs[st.Src.ID]) // P-COPY

	case *ir.Phi:
		for _, in := range st.Incoming { // P-PHI
			if in != nil {
				t.addVar(st.Dst, t.varIDs[in.ID])
			}
		}

	case *ir.Gep:
		base := t.varSet(st.Base)
		base.ForEach(func(id uint32) {
			fo := c.prog.FieldObj(c.prog.Objects[id], st.Field)
			t.addVarObj(st.Dst, uint32(fo.ID))
		})

	case *ir.Load: // P-LOAD
		addrSet := t.varSet(st.Addr)
		for _, e := range c.g.LoadIn[st] {
			def := c.g.Nodes[e.ToMem]
			if e.Ungated || addrSet.Has(uint32(def.Obj.ID)) {
				t.addVar(st.Dst, t.memIDs[e.ToMem])
			}
		}
		if len(t.interIn) > 0 {
			addrSet.ForEach(func(o uint32) {
				if inter, ok := t.interIn[o]; ok {
					t.addVar(st.Dst, inter)
				}
			})
		}

	case *ir.Store:
		for _, id := range c.chiOfStore[st] {
			t.pushMem(id)
		}

	case *ir.Call:
		for _, callee := range c.g.Pre.CallTargets[st] {
			n := len(st.Args)
			if len(callee.Params) < n {
				n = len(callee.Params)
			}
			for i := 0; i < n; i++ {
				t.addVar(callee.Params[i], t.varIDs[st.Args[i].ID])
			}
			if st.Dst != nil && callee.RetVar != nil {
				t.addVar(st.Dst, t.varIDs[callee.RetVar.ID])
			}
		}

	case *ir.Ret:
		if st.Val != nil {
			if f := ir.StmtFunc(st); f != nil && f.RetVar != nil {
				t.addVar(f.RetVar, t.varIDs[st.Val.ID])
			}
		}

	case *ir.Fork:
		if st.Dst != nil {
			t.addVarObj(st.Dst, uint32(st.Handle.ID))
		}
		for _, routine := range c.g.Pre.ForkTargets[st] {
			if st.Arg != nil && len(routine.Params) > 0 {
				t.addVar(routine.Params[0], t.varIDs[st.Arg.ID])
			}
		}
	}
}

// processMem applies the memory transfer at one in-slice MemNode; identical
// to the whole-program solver except that weak-update and pass-through
// store chis absorb gated interference. Strong updates do not — fsam's
// [THREAD-VF] edges likewise never feed a strongly-updated chi.
func (t *threadSolver) processMem(id int) {
	n := t.c.g.Nodes[id]
	switch n.Kind {
	case vfg.MStoreChi:
		st := n.Stmt.(*ir.Store)
		addrSet := t.varSet(st.Addr)
		objID := uint32(n.Obj.ID)
		preAliased := t.c.g.Pre.PointsToVar(st.Addr).Has(objID)

		if !preAliased {
			t.addMem(id, t.varIDs[st.Src.ID])
			t.mergeIn(id)
			t.absorb(id, objID)
			return
		}
		if addrSet.IsEmpty() {
			return
		}
		if addrSet.Has(objID) {
			t.addMem(id, t.varIDs[st.Src.ID]) // P-STORE
			single, ok := addrSet.Single()
			strong := ok && single == objID && t.c.singletons.Has(objID)
			if !strong {
				t.mergeIn(id) // P-WU
				t.absorb(id, objID)
			}
			return
		}
		t.mergeIn(id) // pass-through
		t.absorb(id, objID)

	default:
		t.mergeIn(id)
	}
}

func (t *threadSolver) mergeIn(id int) {
	for _, in := range t.c.g.In[id] {
		t.addMem(id, t.memIDs[in])
	}
}
