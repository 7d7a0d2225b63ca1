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

	"repro/internal/core"
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
	// analysis always runs the concurrent rounds, and this switch is the
	// reference path the schedule-independence tests compare them with.
	Sequential bool
	// Escape is the thread-escape pruning oracle: interference publication
	// skips objects whose stores cannot be absorbed under the configured
	// memory model's gate (non-Shared under sc, ThreadLocal under tso and
	// pso, where the gate also admits happens-before-ordered pairs). Nil
	// disables pruning; pruned and unpruned fixpoints are identical.
	Escape *escape.Result
}

// Result holds the composed thread-modular points-to information: the
// embedded core.Result answers queries over the per-slot union of every
// thread's converged values (Iterations sums pops over all threads and
// rounds).
type Result struct {
	*core.Result

	// MemModel is the memory model the solve ran under.
	MemModel string
	// Rounds counts interference rounds to fixpoint (≥ 1).
	Rounds int
	// NumThreads is the number of per-thread solvers composed.
	NumThreads int
	// PrunedPubs counts (thread, object) interference publications the
	// escape oracle skipped, summed over all rounds.
	PrunedPubs int

	// RoundWall is the wall time of each round's solve step. ThreadWall and
	// ThreadPops are per-thread totals across all rounds, indexed like
	// Model.Threads.
	RoundWall  []time.Duration
	ThreadWall []time.Duration
	ThreadPops []uint64
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

	// funcThreads maps each function to the threads executing it.
	funcThreads map[*ir.Function][]int

	memSyncs []memSync

	// gateOK[tp][tr] caches gate(tp → tr) under opt.MemModel.
	gateOK [][]bool

	cancel *engine.Canceller
}

// threadSolver is one thread's core.Solver, restricted to the thread's
// slice of the shared graph, plus the slice-local indexes the exchange
// step reads.
type threadSolver struct {
	*core.Solver
	thread *threads.Thread

	inStmt []bool // slice membership by ir.StmtID
	inMem  []bool // slice membership by physical MemNode ID

	// varRelevant marks variables some in-slice transfer reads; only those
	// receive the global var union at exchange time.
	varRelevant []bool

	sliceChis  []int // in-slice MStoreChi physical IDs (the publication sites)
	loadsOfObj map[uint32][]*ir.Load
	chisOfObj  map[uint32][]int
	absorbObjs []uint32 // sorted keys of loadsOfObj ∪ chisOfObj

	wall time.Duration
	err  error
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
	c := &coordinator{
		r:      &Result{MemModel: opt.MemModel},
		g:      g,
		model:  model,
		prog:   model.Prog,
		opt:    opt,
		cancel: engine.NewLimitedCanceller(ctx),
	}
	// The index's singleton summary predates field materialization, as in
	// the whole-program solve, which creates field objects as it goes.
	ix := core.NewIndex(model, g)
	c.materializeFields()
	c.buildSolvers(ctx, ix)
	c.buildSyncs()
	c.buildGates()
	if err := c.run(); err != nil {
		return nil, err
	}
	c.snapshot(ix)
	return c.r, nil
}

// materializeFields creates every field object a Gep could demand.
// ir.Program.FieldObj creates field objects lazily (it mutates the
// program), so materializing the closure up front keeps the concurrent
// solves read-only. The solver's base sets refine the pre-analysis, so
// Pre.PointsToVar(gep.Base) covers every object any thread's Gep transfer
// can see.
func (c *coordinator) materializeFields() {
	for _, st := range c.prog.Stmts {
		if gep, ok := st.(*ir.Gep); ok {
			c.g.Pre.PointsToVar(gep.Base).ForEach(func(id uint32) {
				c.prog.FieldObj(c.prog.Objects[id], gep.Field)
			})
		}
	}
}

// buildSolvers computes the per-thread slices and constructs one solver per
// abstract thread. A function belongs to the slice of every thread whose
// context-sensitive walk reaches it; functions no thread reaches (dead
// code the graph still models) and statements outside any function land in
// the main thread's slice, so every node is solved by someone and a
// single-threaded program degenerates to exactly the whole-program solve.
func (c *coordinator) buildSolvers(ctx context.Context, ix *core.Index) {
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
			thread:      th,
			inStmt:      make([]bool, len(c.prog.Stmts)),
			inMem:       make([]bool, len(c.g.Nodes)),
			varRelevant: make([]bool, len(c.prog.Vars)),
			loadsOfObj:  map[uint32][]*ir.Load{},
			chisOfObj:   map[uint32][]int{},
		}
		c.buildSlice(t, ti)
		t.Solver = core.NewSolver(ctx, ix, t.inStmt, t.inMem)
		c.solvers[ti] = t
	}
}

// buildSlice marks the statements and memory nodes of thread ti's slice and
// derives the slice-local indexes (relevant vars, publication chis,
// interference absorbers).
func (c *coordinator) buildSlice(t *threadSolver, ti int) {
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
	var buf []*ir.Var
	for _, st := range c.prog.Stmts {
		if !inThread(ir.StmtFunc(st)) {
			continue
		}
		t.inStmt[st.ID()] = true
		buf = ir.AppendUses(buf[:0], st)
		for _, u := range buf {
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
				if err := t.solve(); err != nil {
					return err
				}
			}
		} else {
			var wg sync.WaitGroup
			for _, t := range c.solvers {
				wg.Add(1)
				go func(t *threadSolver) {
					defer wg.Done()
					t.err = t.solve()
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
			scratch.UnionWith(t.Var(v.ID))
		}
		if scratch.IsEmpty() {
			continue
		}
		for _, t := range c.solvers {
			if t.varRelevant[vi] && t.AdoptVar(v, scratch) {
				changed = true
			}
		}
	}

	// Shared and boundary memory nodes: reconcile each onto the owners'
	// union (local values are always subsets of it, so a length match
	// means equality).
	for i := range c.memSyncs {
		ms := &c.memSyncs[i]
		scratch.Clear()
		for _, ti := range ms.owners {
			scratch.UnionWith(c.solvers[ti].Mem(ms.node))
		}
		if scratch.IsEmpty() {
			continue
		}
		for _, ti := range ms.targets {
			if c.solvers[ti].AdoptMem(ms.node, scratch) {
				changed = true
			}
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
			set := t.Mem(nid)
			if set.IsEmpty() {
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
			m[o].UnionWith(set)
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
			if !tr.AdoptEnv(o, scratch) {
				continue
			}
			for _, l := range tr.loadsOfObj[o] {
				tr.PushStmt(l)
			}
			for _, nid := range tr.chisOfObj[o] {
				tr.PushMem(nid)
			}
			changed = true
		}
	}
	return changed
}

// snapshot composes the final result: per slot, the union of every
// thread's converged value, interned into the result's own canonical
// interner.
func (c *coordinator) snapshot(ix *core.Index) {
	it := engine.NewInterner()
	varIDs := make([]engine.SetID, len(c.prog.Vars))
	memIDs := make([]engine.SetID, len(c.g.Nodes))
	scratch := &pts.Set{}
	for vi := range varIDs {
		scratch.Clear()
		for _, t := range c.solvers {
			scratch.UnionWith(t.Var(ir.VarID(vi)))
		}
		varIDs[vi] = it.Intern(scratch)
	}
	for mi := range memIDs {
		scratch.Clear()
		for _, t := range c.solvers {
			scratch.UnionWith(t.Mem(mi))
		}
		memIDs[mi] = it.Intern(scratch)
	}
	iterations := 0
	for _, t := range c.solvers {
		iterations += t.Iterations
		c.r.ThreadPops = append(c.r.ThreadPops, uint64(t.Iterations))
		c.r.ThreadWall = append(c.r.ThreadWall, t.wall)
	}
	c.r.NumThreads = len(c.solvers)
	c.r.Result = ix.Result(it, varIDs, memIDs, iterations)
}

// solve runs this thread's solver to quiescence, accumulating its wall
// time.
func (t *threadSolver) solve() error {
	t0 := time.Now()
	defer func() { t.wall += time.Since(t0) }()
	return t.Run()
}
