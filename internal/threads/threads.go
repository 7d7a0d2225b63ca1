// Package threads implements the paper's static thread model (Section 3.1):
// abstract threads named by context-sensitive fork sites, the spawning
// relation [T-FORK], the joining relation [T-JOIN] (with full/partial join
// distinction and indirect joins through fully-joined children), sibling
// threads [T-SIBLING], multi-forked threads (Definition 1), the
// happens-before relation for siblings (Definition 2), and the symmetric
// fork/join loop heuristic standing in for LLVM's SCEV correlation
// (paper Figure 11 and Section 4.2).
package threads

import (
	"fmt"
	"sync"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/pts"
)

// Thread is an abstract thread: a context-sensitive fork site (nil fork for
// the main thread). A Thread represents one runtime thread unless Multi.
type Thread struct {
	ID       int
	Fork     *ir.Fork       // nil for main
	SpawnCtx callgraph.Ctx  // context of the fork site within the spawner
	StartCtx callgraph.Ctx  // context at the routine entry (SpawnCtx + fork)
	Spawner  *Thread        // nil for main
	Routines []*ir.Function // possible start procedures
	Multi    bool           // may represent several runtime threads (Def. 1)

	// forks/joins are the context-sensitive fork/join sites executed by
	// this thread, discovered during the thread-local walk.
	forks []SiteCtx
	joins []SiteCtx
	// funcs are the (function, context) pairs this thread may execute;
	// funcOrder lists them in the order the walk first reached them.
	funcs     map[FuncCtx]bool
	funcOrder []FuncCtx
}

func (t *Thread) String() string {
	if t.Fork == nil {
		return "t0(main)"
	}
	return fmt.Sprintf("t%d(%s)", t.ID, t.Fork.Handle.Name)
}

// SiteCtx is a context-qualified statement.
type SiteCtx struct {
	Stmt ir.Stmt
	Ctx  callgraph.Ctx
}

// FuncCtx is a context-qualified function.
type FuncCtx struct {
	Func *ir.Function
	Ctx  callgraph.Ctx
}

// JoinEdge records that Joiner may join Joinee at a join site.
type JoinEdge struct {
	Joiner *Thread
	Joinee *Thread
	Site   *ir.Join
	Ctx    callgraph.Ctx
	// JoinAll marks a symmetric fork/join loop pair: the join is treated as
	// joining every runtime instance of the (multi-forked) joinee once its
	// enclosing loop exits.
	JoinAll bool
	// Full is set when every path from the joinee's fork site to the exit
	// of the enclosing function passes a join of the joinee; full joins
	// propagate join effects to the spawner's ancestors ([T-JOIN]).
	Full bool
}

// Model is the computed static thread model.
type Model struct {
	Prog *ir.Program
	Pre  *andersen.Result
	CG   *callgraph.Graph
	G    *icfg.Graph
	Ctxs *callgraph.Ctxs

	Threads []*Thread
	Main    *Thread

	// ThreadsAtFork lists the abstract threads created at each fork site
	// (one per spawning context).
	ThreadsAtFork map[*ir.Fork][]*Thread

	// Joins are all resolved join edges.
	Joins []*JoinEdge

	// handleFork maps each thread-handle object back to its fork site.
	handleFork map[*ir.Object]*ir.Fork

	// spawnKids[t] are the threads directly spawned by t.
	spawnKids map[*Thread][]*Thread

	// descendants[t] is the transitive spawn closure of t (excluding t).
	descendants map[*Thread]*pts.Set

	// joinsBySite groups edges by join site (for kill computation).
	joinsBySite map[*ir.Join][]*JoinEdge

	// fullJoins[t] = set of thread IDs fully joined by t.
	fullJoins map[*Thread]*pts.Set

	// nodesByFunc caches the ICFG nodes of each function.
	nodesByFunc map[*ir.Function][]*icfg.Node

	// maxThreads bounds abstract-thread enumeration (sound merging beyond).
	maxThreads int

	// hbMemo and mjbMemo cache happens-before queries and the per-function
	// must-joined-before analyses behind them. They are the only lazily
	// mutated state on a built Model, so hbMu is what makes a Model safe to
	// share between pipeline phases scheduled concurrently (MHP ∥ locks).
	hbMu    sync.Mutex
	hbMemo  map[hbKey]bool
	mjbMemo map[mjbKey]map[*icfg.Node]*pts.Set
}

// ThreadByID returns the thread with the given ID.
func (m *Model) ThreadByID(id int) *Thread { return m.Threads[id] }

// Forks returns the context-sensitive fork sites executed by t.
func (m *Model) Forks(t *Thread) []SiteCtx { return t.forks }

// JoinSites returns the context-sensitive join sites executed by t.
func (m *Model) JoinSites(t *Thread) []SiteCtx { return t.joins }

// Funcs returns the context-qualified functions executed by t.
func (m *Model) Funcs(t *Thread) map[FuncCtx]bool { return t.funcs }

// FuncOrder returns the context-qualified functions executed by t in the
// deterministic order the thread walk reached them. Analyses whose output
// order matters (span IDs, instance lists) iterate this, not Funcs.
func (m *Model) FuncOrder(t *Thread) []FuncCtx { return t.funcOrder }

// BuildModel enumerates abstract threads and computes all thread relations.
func BuildModel(pre *andersen.Result, cg *callgraph.Graph, g *icfg.Graph, ctxs *callgraph.Ctxs) *Model {
	m := &Model{
		Prog:          pre.Prog,
		Pre:           pre,
		CG:            cg,
		G:             g,
		Ctxs:          ctxs,
		ThreadsAtFork: map[*ir.Fork][]*Thread{},
		handleFork:    map[*ir.Object]*ir.Fork{},
		spawnKids:     map[*Thread][]*Thread{},
		descendants:   map[*Thread]*pts.Set{},
		joinsBySite:   map[*ir.Join][]*JoinEdge{},
		fullJoins:     map[*Thread]*pts.Set{},
		nodesByFunc:   map[*ir.Function][]*icfg.Node{},
		maxThreads:    4096,
	}
	for _, n := range g.Nodes {
		m.nodesByFunc[n.Func] = append(m.nodesByFunc[n.Func], n)
	}
	for _, s := range pre.Prog.Stmts {
		if f, ok := s.(*ir.Fork); ok {
			m.handleFork[f.Handle] = f
		}
	}
	m.enumerate()
	m.resolveJoins()
	m.computeFullJoins()
	m.computeDescendants()
	return m
}

// ---- Thread enumeration ----

type threadKey struct {
	fork ir.StmtID
	ctx  callgraph.Ctx
}

// enumerate discovers all abstract threads by walking each thread's
// reachable code, creating spawnee threads at every context-sensitive fork
// site found.
func (m *Model) enumerate() {
	byKey := map[threadKey]*Thread{}
	m.Main = &Thread{ID: 0, StartCtx: callgraph.EmptyCtx, Routines: []*ir.Function{m.Prog.Main}}
	m.Threads = []*Thread{m.Main}
	queue := []*Thread{m.Main}

	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		m.walk(t)
		for _, fc := range t.forks {
			fork := fc.Stmt.(*ir.Fork)
			routines := m.Pre.ForkTargets[fork]
			if len(routines) == 0 {
				continue
			}
			key := threadKey{fork: fork.ID(), ctx: fc.Ctx}
			if existing := byKey[key]; existing != nil {
				// Re-discovered (e.g. two walks merged by context capping):
				// the thread must represent multiple runtime instances.
				if existing.Spawner != t {
					existing.Multi = true
				}
				continue
			}
			if len(m.Threads) >= m.maxThreads {
				// Bounded enumeration: mark the spawner's threads multi and
				// stop creating distinctions (sound).
				continue
			}
			nt := &Thread{
				ID:       len(m.Threads),
				Fork:     fork,
				SpawnCtx: fc.Ctx,
				StartCtx: m.Ctxs.Push(fc.Ctx, fork.ID()),
				Spawner:  t,
				Routines: routines,
			}
			nt.Multi = fork.InLoop ||
				m.CG.InRecursion(ir.StmtFunc(fork)) ||
				t.Multi ||
				m.Ctxs.Contains(fc.Ctx, fork.ID())
			byKey[key] = nt
			m.Threads = append(m.Threads, nt)
			m.ThreadsAtFork[fork] = append(m.ThreadsAtFork[fork], nt)
			m.spawnKids[t] = append(m.spawnKids[t], nt)
			queue = append(queue, nt)
		}
	}
}

// walk visits the (function, context) pairs executed by t, collecting its
// fork and join sites. Fork edges are not followed (the spawnee runs in its
// own thread); call edges push context except within call-graph SCCs.
func (m *Model) walk(t *Thread) {
	t.funcs = map[FuncCtx]bool{}
	var visit func(f *ir.Function, ctx callgraph.Ctx)
	visit = func(f *ir.Function, ctx callgraph.Ctx) {
		key := FuncCtx{Func: f, Ctx: ctx}
		if t.funcs[key] {
			return
		}
		t.funcs[key] = true
		t.funcOrder = append(t.funcOrder, key)
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Fork:
					t.forks = append(t.forks, SiteCtx{Stmt: s, Ctx: ctx})
				case *ir.Join:
					t.joins = append(t.joins, SiteCtx{Stmt: s, Ctx: ctx})
				case *ir.Call:
					for _, callee := range m.CG.CalleesOf[s] {
						nctx := ctx
						if !m.CG.SameSCC(f, callee) {
							nctx = m.Ctxs.Push(ctx, s.ID())
						}
						visit(callee, nctx)
					}
				}
			}
		}
	}
	for _, r := range t.Routines {
		visit(r, t.StartCtx)
	}
}

// ---- Join resolution ----

// resolveJoins matches each join site to the abstract threads it may join.
// A join is handled ([T-JOIN]) only when the handle resolves to a single
// fork site with a single candidate thread spawned by the joining thread;
// multi-forked joinees are handled only through the symmetric fork/join
// loop heuristic. Everything else is soundly ignored.
func (m *Model) resolveJoins() {
	for _, t := range m.Threads {
		for _, jc := range t.joins {
			join := jc.Stmt.(*ir.Join)
			handles := m.Pre.PointsToVar(join.Handle)
			var fork *ir.Fork
			count := 0
			handles.ForEach(func(id uint32) {
				obj := m.Pre.Obj(id)
				if obj.Kind == ir.ObjThread {
					count++
					fork = m.handleFork[obj]
				}
			})
			if count != 1 || fork == nil {
				continue // ambiguous handle: unhandled join (sound)
			}
			var candidate *Thread
			nCand := 0
			for _, cand := range m.ThreadsAtFork[fork] {
				if cand.Spawner == t {
					candidate = cand
					nCand++
				}
			}
			if nCand != 1 {
				continue
			}
			edge := &JoinEdge{Joiner: t, Joinee: candidate, Site: join, Ctx: jc.Ctx}
			if candidate.Multi {
				if !symmetricForkJoin(fork, join) {
					continue // cannot prove all instances are joined
				}
				edge.JoinAll = true
			}
			m.Joins = append(m.Joins, edge)
			m.joinsBySite[join] = append(m.joinsBySite[join], edge)
		}
	}
}

// symmetricForkJoin reports whether fork and join form the word_count-style
// symmetric loop pattern (paper Figure 11): both sites inside loops of the
// same function with the join's handle covering exactly the fork's handles.
// This stands in for the paper's SCEV-based fork/join correlation and
// assumes the two loops have matching trip counts.
func symmetricForkJoin(fork *ir.Fork, join *ir.Join) bool {
	if fork.LoopID == 0 || join.LoopID == 0 {
		return false
	}
	return ir.StmtFunc(fork) == ir.StmtFunc(join)
}

// JoinEdgesAt returns the join edges anchored at a join site.
func (m *Model) JoinEdgesAt(j *ir.Join) []*JoinEdge { return m.joinsBySite[j] }

// ---- Spawn relations ----

func (m *Model) computeDescendants() {
	// Reverse topological accumulation (threads are created parent-first,
	// so iterating in reverse ID order sees children before parents).
	for i := len(m.Threads) - 1; i >= 0; i-- {
		t := m.Threads[i]
		set := &pts.Set{}
		for _, kid := range m.spawnKids[t] {
			set.Add(uint32(kid.ID))
			if kd := m.descendants[kid]; kd != nil {
				set.UnionWith(kd)
			}
		}
		m.descendants[t] = set
	}
}

// Descendants returns the transitive spawnees of t as a set of thread IDs.
func (m *Model) Descendants(t *Thread) *pts.Set { return m.descendants[t] }

// IsAncestor reports the transitive spawning relation a ⇒* d ([T-FORK]).
func (m *Model) IsAncestor(a, d *Thread) bool {
	if a == d {
		return false
	}
	return m.descendants[a] != nil && m.descendants[a].Has(uint32(d.ID))
}

// Siblings reports t ◇ t': distinct threads with no ancestry between them
// ([T-SIBLING]).
func (m *Model) Siblings(a, b *Thread) bool {
	return a != b && !m.IsAncestor(a, b) && !m.IsAncestor(b, a)
}
