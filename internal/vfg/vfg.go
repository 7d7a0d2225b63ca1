// Package vfg builds the sparse def-use graph (value-flow graph) that the
// sparse flow-sensitive solver propagates over, implementing Sections 3.2
// and 3.3 of the paper:
//
//   - Thread-oblivious def-use chains: memory SSA (mu/chi annotations and
//     SSA renaming of address-taken objects) over the sequentialized view
//     Pseq in which a fork behaves as a call to its spawn routines (Step 1),
//     with fork-bypass edges (weak chi at fork call sites, Step 2) and
//     join-related edges making the joined thread's side effects visible at
//     the join site (Step 3).
//   - Thread-aware def-use chains ([THREAD-VF]): edges between MHP
//     store-load and store-store pairs with a common pointed-to object,
//     filtered by the lock analysis' non-interference pairs (Definition 6).
//
// Graph shape: memory definitions are MemNodes (store chis, call/fork chis,
// join chis, entry chis, exit phis, memory phis), each carrying one object.
// Edges flow points-to sets from a definition to either another MemNode or
// a Load statement (which feeds its destination top-level variable).
// [THREAD-VF] edges may pass through hub MemNodes, which forward the union
// of some store chis of their object.
package vfg

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/andersen"
	"repro/internal/dom"
	"repro/internal/engine"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pcg"
	"repro/internal/pts"
	"repro/internal/threads"
)

// MemKind classifies memory-definition nodes.
type MemKind uint8

const (
	// MStoreChi is the definition of one object at a Store.
	MStoreChi MemKind = iota
	// MCallChi is the definition at a call or fork site of an object the
	// callee may modify.
	MCallChi
	// MJoinChi is the definition at a join site of an object the joined
	// thread may modify (Step 3).
	MJoinChi
	// MEntryChi is the formal-in definition at a function entry.
	MEntryChi
	// MExitPhi merges an object's definitions at a function's exits.
	MExitPhi
	// MPhi is a memory phi at a block head.
	MPhi
	// MHub forwards [THREAD-VF] values of one object: a store-class hub
	// collects the chis of one access class's stores, an access-class hub
	// feeds one class's loads and store chis (see buildThreadAware).
	MHub
)

func (k MemKind) String() string {
	switch k {
	case MStoreChi:
		return "chi"
	case MCallChi:
		return "call-chi"
	case MJoinChi:
		return "join-chi"
	case MEntryChi:
		return "entry-chi"
	case MExitPhi:
		return "exit-phi"
	case MPhi:
		return "mphi"
	case MHub:
		return "hub"
	}
	return fmt.Sprintf("MemKind(%d)", uint8(k))
}

// MemNode is one memory definition in the def-use graph.
type MemNode struct {
	ID   int
	Kind MemKind
	// For a hub, Class is the ordinal of its access class among Obj's
	// classes, and Access tells an access-class hub from a store-class one.
	Access bool
	Class  int32
	Obj    *ir.Object
	Stmt   ir.Stmt      // Store / Call / Fork / Join; nil for entry/exit/phi
	Func   *ir.Function // owning function
	Blk    *ir.Block    // for MPhi
}

func (n *MemNode) String() string {
	switch n.Kind {
	case MStoreChi, MCallChi, MJoinChi:
		return fmt.Sprintf("%s(%s @ %s)", n.Kind, n.Obj, n.Stmt)
	case MPhi:
		return fmt.Sprintf("mphi(%s @ %s.%s)", n.Obj, n.Func, n.Blk)
	case MHub:
		side := "store"
		if n.Access {
			side = "access"
		}
		return fmt.Sprintf("hub(%s %s-class %d)", n.Obj, side, n.Class)
	default:
		return fmt.Sprintf("%s(%s @ %s)", n.Kind, n.Obj, n.Func)
	}
}

// Edge carries a memory definition to a consumer: another MemNode or a Load
// statement. ThreadAware marks [THREAD-VF] edges; Ungated marks ablation
// (No-Value-Flow) edges that bypass the solver's pointer gate.
type Edge struct {
	ToMem       int // MemNode ID, or -1
	ToLoad      *ir.Load
	ThreadAware bool
	Ungated     bool
}

// Options configure graph construction (the paper's ablations).
type Options struct {
	// Interleave supplies precise statement-instance MHP facts. When nil,
	// PCG is used instead (the No-Interleaving configuration).
	Interleave *mhp.Result
	// PCG is the coarse procedure-level MHP (required when Interleave is
	// nil).
	PCG *pcg.Result
	// Locks enables non-interference filtering; nil disables it (the
	// No-Lock configuration).
	Locks *locks.Result
	// NoValueFlow disables the aliasing premise of [THREAD-VF]: every MHP
	// store-access pair gets edges for all objects the store may define.
	NoValueFlow bool
	// ThreadOblivious skips [THREAD-VF] entirely: only the sequential
	// memory-SSA def-use chains (plus fork bypass and join edges) are
	// built, and no interference analysis is consulted. This is the
	// degradation ladder's middle tier — a flow-sensitive result that
	// ignores cross-thread value flows, used when the interference phases
	// or the full sparse solve fail by panic or budget.
	ThreadOblivious bool
	// Escape is the thread-escape pruning oracle: [THREAD-VF] construction
	// skips objects it proves non-Shared (no accessor pair may run in
	// parallel, so no statement-level MHP store-access pair exists for
	// them). Nil disables pruning. It is never consulted under
	// NoValueFlow, whose ungated ablation edges bypass the pointer gate
	// the oracle's soundness argument relies on.
	Escape *escape.Result
}

// Graph is the finished def-use graph.
//
// Before [THREAD-VF] runs, construction collapses every memory node that
// only copies another one (see compact): Nodes keeps every node
// construction created, so the ID-returning lookups and per-node queries are
// unchanged, while Out, In and LoadIn connect representatives only.
type Graph struct {
	Prog  *ir.Program
	Pre   *andersen.Result
	Model *threads.Model
	MR    *ModRef

	Nodes []*MemNode
	// Rep maps every node ID to its representative: the node itself, the
	// node whose points-to set it always equals, or -1 for a node whose set
	// is always empty. A collapsed node has no edges of its own.
	Rep []int32
	// Out and In are edge lists per MemNode ID.
	Out [][]Edge
	In  [][]int
	// LoadIn lists the incoming definition nodes of each Load.
	LoadIn map[*ir.Load][]Edge

	// funcs locates each function's entry chis and exit phis. storeChis,
	// indexed by StmtID, is the ID of a store's first chi, -1 for a store
	// renaming never reached: a store's chis are consecutive, one per
	// object its address may point to, in ascending order. extraChis holds
	// the chis outside that layout, which the No-Value-Flow ablation adds.
	funcs     map[*ir.Function]funcInfo
	storeChis []int32
	extraChis map[stmtObjKey]int

	// Stats. ObliviousEdges counts the distinct thread-oblivious edges
	// construction created, before compaction merged any of them.
	// ThreadEdges counts the [THREAD-VF] relation: the distinct store-chi to
	// access pairs that are admitted and not already a thread-oblivious
	// edge. FilteredByLock and FilteredByVF count the (store, access,
	// object) triples the lock filter and MHP rejected.
	ObliviousEdges int
	ThreadEdges    int
	FilteredByLock int
	FilteredByVF   int
	// StoredThreadEdges counts the edges [THREAD-VF] construction stored,
	// through ThreadHubs hub nodes: fewer than ThreadEdges where hubs
	// factor a class pair's edges.
	StoredThreadEdges int
	ThreadHubs        int
	// FilteredByEscape counts objects whose [THREAD-VF] candidate pairs
	// were skipped wholesale because the escape oracle proved them
	// non-shared.
	FilteredByEscape int
}

type stmtObjKey struct {
	stmt ir.StmtID
	obj  ir.ObjID
}

// Build constructs the def-use graph.
func Build(model *threads.Model, lk *locks.Result, il *mhp.Result, pc *pcg.Result, opt Options) *Graph {
	opt.Locks = lk
	opt.Interleave = il
	opt.PCG = pc
	return BuildWithOptions(model, opt)
}

// BuildWithOptions constructs the def-use graph with explicit options.
func BuildWithOptions(model *threads.Model, opt Options) *Graph {
	g, _ := BuildCtx(context.Background(), model, opt)
	return g
}

// BuildCtx constructs the def-use graph under a context. On cancellation
// it returns (nil, ctx.Err()); the construction loops (SSA renaming,
// fork-bypass wiring, [THREAD-VF] pair enumeration) poll periodically.
func BuildCtx(ctx context.Context, model *threads.Model, opt Options) (*Graph, error) {
	return build(ctx, model, opt, true)
}

// build constructs the def-use graph, collapsing copy nodes unless collapse
// is false (the differential tests' uncompacted oracle).
func build(ctx context.Context, model *threads.Model, opt Options, collapse bool) (*Graph, error) {
	b, err := buildSequential(ctx, model, opt, collapse)
	if err != nil {
		return nil, err
	}
	if opt.ThreadOblivious {
		b.adjacency(0)
	} else if err := b.buildThreadAware(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// buildSequential runs the thread-oblivious steps (memory SSA over Pseq and
// fork bypass), compacts their graph and returns the builder, ready for
// [THREAD-VF], which builds the adjacency once it knows how many hubs it
// adds.
func buildSequential(ctx context.Context, model *threads.Model, opt Options, collapse bool) (*gbuilder, error) {
	g := &Graph{
		Prog:      model.Prog,
		Pre:       model.Pre,
		Model:     model,
		MR:        computeModRef(model.Pre, model),
		funcs:     make(map[*ir.Function]funcInfo, len(model.Prog.Funcs)),
		storeChis: make([]int32, len(model.Prog.Stmts)),
	}
	for i := range g.storeChis {
		g.storeChis[i] = -1
	}
	b := &gbuilder{
		g:        g,
		opt:      opt,
		forkDefs: map[*ir.Fork]map[ir.ObjID]int{},
		cancel:   engine.NewLimitedCanceller(ctx),
	}
	if err := b.buildOblivious(); err != nil {
		return nil, err
	}
	if err := b.buildForkBypass(); err != nil {
		return nil, err
	}
	b.compact(collapse)
	return b, nil
}

// StoreChiNode returns the node ID for (store, obj), or -1.
func (g *Graph) StoreChiNode(s *ir.Store, obj *ir.Object) int {
	if first := g.storeChis[s.ID()]; first >= 0 {
		if k, ok := g.Pre.PointsToVar(s.Addr).Rank(uint32(obj.ID)); ok {
			return int(first) + k
		}
	}
	if id, ok := g.extraChis[stmtObjKey{stmt: s.ID(), obj: obj.ID}]; ok {
		return id
	}
	return -1
}

// EntryChiNode returns the entry-chi node ID for (f, obj), or -1.
func (g *Graph) EntryChiNode(f *ir.Function, obj *ir.Object) int {
	if fi, ok := g.funcs[f]; ok {
		if k, has := fi.refMod.Rank(uint32(obj.ID)); has {
			return fi.entry + k
		}
	}
	return -1
}

// ExitPhiNode returns the exit-phi node ID for (f, obj), or -1. The exit
// phi of main holds an object's final points-to set, which is what the
// facade reports for whole-program queries.
func (g *Graph) ExitPhiNode(f *ir.Function, obj *ir.Object) int {
	fi, ok := g.funcs[f]
	if k, has := g.MR.Mod(f).Rank(uint32(obj.ID)); ok && has {
		return fi.exit + k
	}
	return -1
}

// NumEdges returns the number of edges in Out: at most ObliviousEdges +
// StoredThreadEdges, fewer when compaction merged constructed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// Bytes estimates the graph's memory footprint: nodes, out-edges, the In
// and LoadIn mirrors and the representative table.
func (g *Graph) Bytes() uint64 {
	var total uint64
	total += uint64(len(g.Nodes)) * 64
	total += uint64(g.NumEdges()) * 24
	for _, in := range g.In {
		total += uint64(len(in)) * 8
	}
	for _, in := range g.LoadIn {
		total += uint64(len(in)) * 24
	}
	total += uint64(len(g.Rep)) * 4
	return total
}

// gbuilder carries construction state.
type gbuilder struct {
	g   *Graph
	opt Options

	// forkDefs records, per fork site and modified object, the memory
	// definition reaching the fork (the pre-fork value); buildForkBypass
	// wires these to the uses between the fork and its join (Step 2).
	forkDefs map[*ir.Fork]map[ir.ObjID]int

	// slab backs the MemNodes, nodeSlab at a time.
	slab []MemNode

	// memEdges and loadEdges record the thread-oblivious edges in
	// construction order, duplicates included. compact groups them by
	// target into oblMem and oblLoad, the distinct constructed in-sources
	// of every node and load, which [THREAD-VF] dedups against.
	memEdges, loadEdges []pair
	oblMem, oblLoad     csr
	// repMem and repLoad are those edges between representatives, grouped
	// by target, until adjacency turns them into Out, In and LoadIn.
	repMem, repLoad csr

	// funcInsts lists the thread model's instances per function, for the
	// PCG configuration's lock filter.
	funcInsts map[*ir.Function][]mhp.InstanceFact

	cancel *engine.Canceller
}

// funcInfo is a function's Ref ∪ Mod set and the IDs of its first entry
// chi and first exit phi. Both runs are consecutive: one entry chi per
// element of refMod and one exit phi per element of Mod, in ascending
// object order.
type funcInfo struct {
	refMod      *pts.Set
	entry, exit int
}

// nodeSlab is the number of MemNodes allocated at once.
const nodeSlab = 1024

func (b *gbuilder) newNode(kind MemKind, obj *ir.Object, stmt ir.Stmt, f *ir.Function, blk *ir.Block) int {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]MemNode, 0, nodeSlab)
	}
	id := len(b.g.Nodes)
	b.slab = append(b.slab, MemNode{ID: id, Kind: kind, Obj: obj, Stmt: stmt, Func: f, Blk: blk})
	b.g.Nodes = append(b.g.Nodes, &b.slab[len(b.slab)-1])
	return id
}

// addMemEdge records the thread-oblivious edge def → MemNode.
func (b *gbuilder) addMemEdge(from, to int) {
	if from < 0 || to < 0 || from == to {
		return
	}
	b.memEdges = append(b.memEdges, pair{from: int32(from), to: int32(to)})
}

// addLoadEdge records the thread-oblivious edge def → load.
func (b *gbuilder) addLoadEdge(from int, l *ir.Load) {
	if from < 0 {
		return
	}
	b.loadEdges = append(b.loadEdges, pair{from: int32(from), to: int32(l.ID())})
}

// addThreadMemEdge adds the [THREAD-VF] edge between store chis from → to
// to the compacted graph, unless construction already made the same
// thread-oblivious edge.
func (b *gbuilder) addThreadMemEdge(from, to int, ungated bool) {
	if from < 0 || to < 0 || from == to || !ungated && b.oblMem.has(to, from) {
		return
	}
	b.linkMem(from, to, ungated)
}

// addThreadLoadEdge adds the [THREAD-VF] edge store chi → load, unless
// construction already made the same thread-oblivious edge.
func (b *gbuilder) addThreadLoadEdge(from int, l *ir.Load, ungated bool) {
	if from < 0 || !ungated && b.oblLoad.has(int(l.ID()), from) {
		return
	}
	b.linkLoad(from, l, ungated)
}

// linkMem stores the [THREAD-VF] edge from → to between memory nodes.
func (b *gbuilder) linkMem(from, to int, ungated bool) {
	g := b.g
	g.Out[from] = append(g.Out[from], Edge{ToMem: to, ThreadAware: true, Ungated: ungated})
	g.In[to] = append(g.In[to], from)
	g.StoredThreadEdges++
}

// linkLoad stores the [THREAD-VF] edge from → l.
func (b *gbuilder) linkLoad(from int, l *ir.Load, ungated bool) {
	g := b.g
	g.Out[from] = append(g.Out[from], Edge{ToMem: -1, ToLoad: l, ThreadAware: true, Ungated: ungated})
	g.LoadIn[l] = append(g.LoadIn[l], Edge{ToMem: from, ToLoad: l, ThreadAware: true, Ungated: ungated})
	g.StoredThreadEdges++
}

// ---- Thread-oblivious construction (memory SSA over Pseq) ----

func (b *gbuilder) buildOblivious() error {
	g := b.g
	// Pre-create entry chis and exit phis so interprocedural edges can be
	// wired during each function's renaming regardless of order.
	for _, f := range g.Prog.Funcs {
		refMod := g.MR.Ref(f).Copy()
		refMod.UnionWith(g.MR.Mod(f))
		fi := funcInfo{refMod: refMod, entry: len(g.Nodes)}
		refMod.ForEach(func(id uint32) {
			b.newNode(MEntryChi, g.Prog.Objects[id], nil, f, nil)
		})
		fi.exit = len(g.Nodes)
		g.funcs[f] = fi
		g.MR.Mod(f).ForEach(func(id uint32) {
			b.newNode(MExitPhi, g.Prog.Objects[id], nil, f, nil)
		})
	}
	for _, f := range g.Prog.Funcs {
		if b.cancel.Cancelled() {
			return b.cancel.Err()
		}
		b.renameFunc(f)
	}
	return nil
}

// forEachEntryChi calls fn with each object callee has an entry chi for, in
// ascending order, and that entry chi.
func (b *gbuilder) forEachEntryChi(callee *ir.Function, fn func(obj uint32, entry int)) {
	fi := b.g.funcs[callee]
	if fi.refMod == nil {
		return
	}
	ec := fi.entry
	fi.refMod.ForEach(func(id uint32) {
		fn(id, ec)
		ec++
	})
}

// calleesAt returns the Pseq callees of a statement: call targets, fork
// routines, or joined-thread routines.
func (b *gbuilder) calleesAt(s ir.Stmt) []*ir.Function {
	switch s := s.(type) {
	case *ir.Call:
		return b.g.Pre.CallTargets[s]
	case *ir.Fork:
		return b.g.Pre.ForkTargets[s]
	case *ir.Join:
		var out []*ir.Function
		seen := map[*ir.Function]bool{}
		for _, e := range b.g.Model.JoinEdgesAt(s) {
			for _, r := range e.Joinee.Routines {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
		return out
	}
	return nil
}

// renameFunc performs block-level memory-SSA construction for one function.
func (b *gbuilder) renameFunc(f *ir.Function) {
	g := b.g
	if f.Entry == nil {
		return
	}
	objsOf := g.funcs[f].refMod
	if objsOf.IsEmpty() {
		return
	}

	// Definition blocks per object.
	defBlocks := map[ir.ObjID][]*ir.Block{}
	addDef := func(obj ir.ObjID, blk *ir.Block) {
		defBlocks[obj] = append(defBlocks[obj], blk)
	}
	for _, blk := range f.Blocks {
		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.Store:
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
					addDef(ir.ObjID(id), blk)
				})
			case *ir.Call, *ir.Fork:
				for _, callee := range b.calleesAt(s) {
					g.MR.Mod(callee).ForEach(func(id uint32) {
						addDef(ir.ObjID(id), blk)
					})
				}
			case *ir.Join:
				g.MR.JoinMods(s).ForEach(func(id uint32) {
					addDef(ir.ObjID(id), blk)
				})
			}
		}
	}

	// Phi placement.
	d := dom.Compute(f)
	type blockPhi struct {
		obj  ir.ObjID
		node int
	}
	phisAt := map[*ir.Block][]blockPhi{}
	// Objects are placed in ascending ID order so node IDs do not depend on
	// map iteration order.
	defObjs := make([]ir.ObjID, 0, len(defBlocks))
	for objID := range defBlocks {
		defObjs = append(defObjs, objID)
	}
	slices.Sort(defObjs)
	for _, objID := range defObjs {
		obj := g.Prog.Objects[objID]
		for _, fb := range d.IteratedFrontier(defBlocks[objID]) {
			phisAt[fb] = append(phisAt[fb], blockPhi{obj: objID, node: b.newNode(MPhi, obj, nil, f, fb)})
		}
	}

	// Renaming along the dominator tree with an undo log.
	cur := map[ir.ObjID]int{} // current definition node per object
	b.forEachEntryChi(f, func(id uint32, ec int) { cur[ir.ObjID(id)] = ec })

	curDef := func(obj ir.ObjID) int {
		if n, ok := cur[obj]; ok {
			return n
		}
		return -1
	}

	var rename func(blk *ir.Block)
	rename = func(blk *ir.Block) {
		type undo struct {
			obj  ir.ObjID
			node int
			had  bool
		}
		var undos []undo
		set := func(obj ir.ObjID, node int) {
			old, had := cur[obj]
			undos = append(undos, undo{obj: obj, node: old, had: had})
			cur[obj] = node
		}

		// Phis at block head.
		for _, p := range phisAt[blk] {
			set(p.obj, p.node)
		}

		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.Load:
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
					b.addLoadEdge(curDef(ir.ObjID(id)), s)
				})

			case *ir.Store:
				g.storeChis[s.ID()] = int32(len(g.Nodes))
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
					obj := g.Prog.Objects[id]
					chi := b.newNode(MStoreChi, obj, s, f, blk)
					// Weak-in edge: the old contents flow into the chi; the
					// solver kills them when a strong update applies.
					b.addMemEdge(curDef(obj.ID), chi)
					set(obj.ID, chi)
				})

			case *ir.Call, *ir.Fork, *ir.Join:
				callees := b.calleesAt(s)
				if len(callees) == 0 {
					break
				}
				_, isFork := s.(*ir.Fork)
				_, isJoin := s.(*ir.Join)

				// mu: current versions flow into callee entry chis.
				modHere := &pts.Set{}
				for _, callee := range callees {
					b.forEachEntryChi(callee, func(id uint32, ec int) {
						b.addMemEdge(curDef(ir.ObjID(id)), ec)
					})
					modHere.UnionWith(g.MR.Mod(callee))
				}
				anyNonMod := &pts.Set{}
				for _, callee := range callees {
					anyNonMod.UnionWith(modHere.Difference(g.MR.Mod(callee)))
				}
				if isJoin {
					// Joins only absorb the joined routines' mods.
					modHere = g.MR.JoinMods(s.(*ir.Join))
				}

				// chi: callee exit versions define the object here, in
				// ascending object order.
				modHere.ForEach(func(id uint32) {
					objID := ir.ObjID(id)
					obj := g.Prog.Objects[objID]
					kind := MCallChi
					if isJoin {
						kind = MJoinChi
					}
					chi := b.newNode(kind, obj, s, f, blk)
					for _, callee := range callees {
						b.addMemEdge(g.ExitPhiNode(callee, obj), chi)
					}
					// Joins merge the routine's exit state with the current
					// value (the spawner may have written in parallel);
					// calls with a non-modifying callee flow through. Fork
					// chis are strong: the deferred-execution case (Step 2)
					// is handled by separate bypass edges from the pre-fork
					// definition to every use between the fork and its join
					// (see buildForkBypass).
					if isJoin || (!isFork && anyNonMod.Has(id)) {
						b.addMemEdge(curDef(objID), chi)
					}
					if isFork {
						fk := s.(*ir.Fork)
						if b.forkDefs[fk] == nil {
							b.forkDefs[fk] = map[ir.ObjID]int{}
						}
						b.forkDefs[fk][objID] = curDef(objID)
					}
					set(objID, chi)
				})

			case *ir.Ret:
				ep := g.funcs[f].exit
				g.MR.Mod(f).ForEach(func(id uint32) {
					b.addMemEdge(curDef(ir.ObjID(id)), ep)
					ep++
				})
			}
		}

		// Fill memory-phi inputs of CFG successors.
		for _, succ := range blk.Succs {
			for _, p := range phisAt[succ] {
				b.addMemEdge(curDef(p.obj), p.node)
			}
		}

		for _, child := range d.Children(blk) {
			rename(child)
		}
		// Undo in reverse order.
		for i := len(undos) - 1; i >= 0; i-- {
			u := undos[i]
			if u.had {
				cur[u.obj] = u.node
			} else {
				delete(cur, u.obj)
			}
		}
	}
	rename(f.Entry)
}
