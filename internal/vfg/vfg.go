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
	}
	return fmt.Sprintf("MemKind(%d)", uint8(k))
}

// MemNode is one memory definition in the def-use graph.
type MemNode struct {
	ID   int
	Kind MemKind
	Obj  *ir.Object
	Stmt ir.Stmt      // Store / Call / Fork / Join; nil for entry/exit/phi
	Func *ir.Function // owning function
	Blk  *ir.Block    // for MPhi
}

func (n *MemNode) String() string {
	switch n.Kind {
	case MStoreChi, MCallChi, MJoinChi:
		return fmt.Sprintf("%s(%s @ %s)", n.Kind, n.Obj, n.Stmt)
	case MPhi:
		return fmt.Sprintf("mphi(%s @ %s.%s)", n.Obj, n.Func, n.Blk)
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
type Graph struct {
	Prog  *ir.Program
	Pre   *andersen.Result
	Model *threads.Model
	MR    *ModRef

	Nodes []*MemNode
	// Out and In are edge lists per MemNode ID.
	Out [][]Edge
	In  [][]int
	// LoadIn lists the incoming definition nodes of each Load.
	LoadIn map[*ir.Load][]Edge

	// storeChi indexes StoreChi nodes by (store, obj).
	storeChi map[stmtObjKey]int
	entryChi map[funcObjKey]int
	exitPhi  map[funcObjKey]int

	// Stats.
	ObliviousEdges int
	ThreadEdges    int
	FilteredByLock int
	FilteredByVF   int
	// FilteredByEscape counts objects whose [THREAD-VF] candidate pairs
	// were skipped wholesale because the escape oracle proved them
	// non-shared.
	FilteredByEscape int
}

type stmtObjKey struct {
	stmt ir.StmtID
	obj  ir.ObjID
}

type funcObjKey struct {
	f   *ir.Function
	obj ir.ObjID
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
	b, err := buildSequential(ctx, model, opt)
	if err != nil {
		return nil, err
	}
	if !opt.ThreadOblivious {
		if err := b.buildThreadAware(); err != nil {
			return nil, err
		}
	}
	return b.g, nil
}

// buildSequential runs the thread-oblivious steps (memory SSA over Pseq and
// fork bypass) and returns the builder, ready for [THREAD-VF].
func buildSequential(ctx context.Context, model *threads.Model, opt Options) (*gbuilder, error) {
	g := &Graph{
		Prog:     model.Prog,
		Pre:      model.Pre,
		Model:    model,
		MR:       computeModRef(model.Pre, model),
		LoadIn:   map[*ir.Load][]Edge{},
		storeChi: map[stmtObjKey]int{},
		entryChi: map[funcObjKey]int{},
		exitPhi:  map[funcObjKey]int{},
	}
	b := &gbuilder{
		g:        g,
		opt:      opt,
		forkDefs: map[*ir.Fork]map[ir.ObjID]int{},
		seenMem:  map[memEdgeKey]bool{},
		seenLoad: map[loadEdgeKey]bool{},
		cancel:   engine.NewLimitedCanceller(ctx),
	}
	if err := b.buildOblivious(); err != nil {
		return nil, err
	}
	if err := b.buildForkBypass(); err != nil {
		return nil, err
	}
	return b, nil
}

// StoreChiNode returns the node ID for (store, obj), or -1.
func (g *Graph) StoreChiNode(s *ir.Store, obj *ir.Object) int {
	if id, ok := g.storeChi[stmtObjKey{stmt: s.ID(), obj: obj.ID}]; ok {
		return id
	}
	return -1
}

// EntryChiNode returns the entry-chi node ID for (f, obj), or -1.
func (g *Graph) EntryChiNode(f *ir.Function, obj *ir.Object) int {
	if id, ok := g.entryChi[funcObjKey{f: f, obj: obj.ID}]; ok {
		return id
	}
	return -1
}

// ExitPhiNode returns the exit-phi node ID for (f, obj), or -1. The exit
// phi of main holds an object's final points-to set, which is what the
// facade reports for whole-program queries.
func (g *Graph) ExitPhiNode(f *ir.Function, obj *ir.Object) int {
	if id, ok := g.exitPhi[funcObjKey{f: f, obj: obj.ID}]; ok {
		return id
	}
	return -1
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// Bytes estimates the graph's memory footprint.
func (g *Graph) Bytes() uint64 {
	var total uint64
	total += uint64(len(g.Nodes)) * 64
	total += uint64(g.NumEdges()) * 24
	for _, in := range g.In {
		total += uint64(len(in)) * 8
	}
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

	// seenMem and seenLoad deduplicate edges in O(1). They record only
	// thread-oblivious edges: [THREAD-VF] visits each (store chi, peer)
	// once, and a chi is unique per (store, object), so a thread-aware edge
	// can only duplicate an oblivious one, never another thread-aware one.
	seenMem  map[memEdgeKey]bool
	seenLoad map[loadEdgeKey]bool

	// funcInsts lists the thread model's instances per function, for the
	// PCG configuration's lock filter.
	funcInsts map[*ir.Function][]mhp.InstanceFact

	cancel *engine.Canceller
}

type memEdgeKey struct {
	from, to int
	ungated  bool
}

type loadEdgeKey struct {
	from    int
	load    *ir.Load
	ungated bool
}

func (b *gbuilder) newNode(kind MemKind, obj *ir.Object, stmt ir.Stmt, f *ir.Function, blk *ir.Block) int {
	g := b.g
	n := &MemNode{ID: len(g.Nodes), Kind: kind, Obj: obj, Stmt: stmt, Func: f, Blk: blk}
	g.Nodes = append(g.Nodes, n)
	g.Out = append(g.Out, nil)
	g.In = append(g.In, nil)
	return n.ID
}

// addMemEdge wires def → MemNode.
func (b *gbuilder) addMemEdge(from, to int, threadAware bool, ungated bool) {
	if from < 0 || to < 0 || from == to {
		return
	}
	g := b.g
	key := memEdgeKey{from: from, to: to, ungated: ungated}
	if b.seenMem[key] {
		return
	}
	if !threadAware {
		b.seenMem[key] = true
	}
	g.Out[from] = append(g.Out[from], Edge{ToMem: to, ThreadAware: threadAware, Ungated: ungated})
	g.In[to] = append(g.In[to], from)
	if threadAware {
		g.ThreadEdges++
	} else {
		g.ObliviousEdges++
	}
}

// addLoadEdge wires def → load.
func (b *gbuilder) addLoadEdge(from int, l *ir.Load, threadAware bool, ungated bool) {
	if from < 0 {
		return
	}
	g := b.g
	key := loadEdgeKey{from: from, load: l, ungated: ungated}
	if b.seenLoad[key] {
		return
	}
	if !threadAware {
		b.seenLoad[key] = true
	}
	e := Edge{ToMem: -1, ToLoad: l, ThreadAware: threadAware, Ungated: ungated}
	g.Out[from] = append(g.Out[from], e)
	g.LoadIn[l] = append(g.LoadIn[l], Edge{ToMem: from, ToLoad: l, ThreadAware: threadAware, Ungated: ungated})
	if threadAware {
		g.ThreadEdges++
	} else {
		g.ObliviousEdges++
	}
}

// ---- Thread-oblivious construction (memory SSA over Pseq) ----

func (b *gbuilder) buildOblivious() error {
	g := b.g
	// Pre-create entry chis and exit phis so interprocedural edges can be
	// wired during each function's renaming regardless of order.
	for _, f := range g.Prog.Funcs {
		refs := g.MR.Ref(f).Copy()
		refs.UnionWith(g.MR.Mod(f))
		refs.ForEach(func(id uint32) {
			obj := g.Prog.Objects[id]
			key := funcObjKey{f: f, obj: obj.ID}
			g.entryChi[key] = b.newNode(MEntryChi, obj, nil, f, nil)
		})
		g.MR.Mod(f).ForEach(func(id uint32) {
			obj := g.Prog.Objects[id]
			key := funcObjKey{f: f, obj: obj.ID}
			g.exitPhi[key] = b.newNode(MExitPhi, obj, nil, f, nil)
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
	objsOf := g.MR.Ref(f).Copy()
	objsOf.UnionWith(g.MR.Mod(f))
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
	objsOf.ForEach(func(id uint32) {
		if ec, ok := g.entryChi[funcObjKey{f: f, obj: ir.ObjID(id)}]; ok {
			cur[ir.ObjID(id)] = ec
		}
	})

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
					b.addLoadEdge(curDef(ir.ObjID(id)), s, false, false)
				})

			case *ir.Store:
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
					obj := g.Prog.Objects[id]
					chi := b.newNode(MStoreChi, obj, s, f, blk)
					g.storeChi[stmtObjKey{stmt: s.ID(), obj: obj.ID}] = chi
					// Weak-in edge: the old contents flow into the chi; the
					// solver kills them when a strong update applies.
					b.addMemEdge(curDef(obj.ID), chi, false, false)
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
					refs := g.MR.Ref(callee).Copy()
					refs.UnionWith(g.MR.Mod(callee))
					refs.ForEach(func(id uint32) {
						ec := g.entryChi[funcObjKey{f: callee, obj: ir.ObjID(id)}]
						b.addMemEdge(curDef(ir.ObjID(id)), ec, false, false)
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
						if ep, ok := g.exitPhi[funcObjKey{f: callee, obj: objID}]; ok {
							b.addMemEdge(ep, chi, false, false)
						}
					}
					// Joins merge the routine's exit state with the current
					// value (the spawner may have written in parallel);
					// calls with a non-modifying callee flow through. Fork
					// chis are strong: the deferred-execution case (Step 2)
					// is handled by separate bypass edges from the pre-fork
					// definition to every use between the fork and its join
					// (see buildForkBypass).
					if isJoin || (!isFork && anyNonMod.Has(id)) {
						b.addMemEdge(curDef(objID), chi, false, false)
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
				g.MR.Mod(f).ForEach(func(id uint32) {
					ep := g.exitPhi[funcObjKey{f: f, obj: ir.ObjID(id)}]
					b.addMemEdge(curDef(ir.ObjID(id)), ep, false, false)
				})
			}
		}

		// Fill memory-phi inputs of CFG successors.
		for _, succ := range blk.Succs {
			for _, p := range phisAt[succ] {
				b.addMemEdge(curDef(p.obj), p.node, false, false)
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
