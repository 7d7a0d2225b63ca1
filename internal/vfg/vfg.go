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
// Graph shape: memory definitions (store chis, call/fork chis, join chis,
// entry chis, exit phis, memory phis) each carry one object and have a
// logical ID. Only the definitions that hold a set of their own are stored,
// as MemNodes; every other logical ID maps to the node whose set it always
// equals, or to none (see compact). Edges flow points-to sets from a
// MemNode to either another MemNode or a Load statement (which feeds its
// destination top-level variable). [THREAD-VF] edges may pass through hub
// MemNodes, which forward the union of some store chis of their object.
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

// MemNode is one physical node of the def-use graph: the memory definition
// that represents a set of logical ones, or a hub. ID is its physical ID.
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
	ToMem       int // physical MemNode ID, or -1
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
	// built, and no interference analysis is consulted. It is the
	// thread-modular engine's def-use graph: that engine supplies the
	// cross-thread flows through its interference rounds instead.
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
// Memory definitions have logical IDs, which StoreChiNode, EntryChiNode and
// ExitPhiNode return. Before [THREAD-VF] runs, construction resolves every
// logical node that only copies another one (see compact) and stores only
// the representatives, as Nodes under physical IDs; the hubs and the
// No-Value-Flow ablation's chis are added after them, as their own
// representatives. Rep maps logical IDs to physical ones.
type Graph struct {
	Prog  *ir.Program
	Pre   *andersen.Result
	Model *threads.Model
	MR    *ModRef

	// Nodes are the physical nodes, by physical ID: the representatives in
	// logical-ID order, then the nodes added after compaction.
	Nodes []*MemNode
	// Rep maps every logical ID to the physical node holding its points-to
	// set: its own, the one it always equals, or -1 for a definition whose
	// set is always empty.
	Rep []int32
	// Out and In are edge lists per physical ID.
	Out [][]Edge
	In  [][]int
	// LoadIn lists the incoming definition nodes of each Load.
	LoadIn map[*ir.Load][]Edge

	// funcs locates each function's entry chis and exit phis. storeChis,
	// indexed by StmtID, is the logical ID of a store's first chi, -1 for a
	// store renaming never reached: a store's chis are consecutive, one per
	// object its address may point to, in ascending order, and as store
	// chis are never collapsed their physical IDs are consecutive too.
	// extraChis lists, per store, the logical IDs of the chis outside that
	// layout, which the No-Value-Flow ablation adds.
	funcs     map[*ir.Function]funcInfo
	storeChis []int32
	extraChis map[ir.StmtID][]int32

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

// StoreChiNode returns the logical ID of the chi of (store, obj), or -1.
func (g *Graph) StoreChiNode(s *ir.Store, obj *ir.Object) int {
	if first := g.storeChis[s.ID()]; first >= 0 {
		if k, ok := g.Pre.PointsToVar(s.Addr).Rank(uint32(obj.ID)); ok {
			return int(first) + k
		}
	}
	for _, id := range g.extraChis[s.ID()] {
		if g.Nodes[g.Rep[id]].Obj.ID == obj.ID {
			return int(id)
		}
	}
	return -1
}

// StoreChis appends the physical IDs of store s's chis to dst and returns
// it: one per object its address may point to, ascending, then those the
// No-Value-Flow ablation added, in creation order.
func (g *Graph) StoreChis(dst []int32, s *ir.Store) []int32 {
	if first := g.storeChis[s.ID()]; first >= 0 {
		for k := range g.Pre.PointsToVar(s.Addr).Len() {
			dst = append(dst, g.Rep[int(first)+k])
		}
	}
	for _, id := range g.extraChis[s.ID()] {
		dst = append(dst, g.Rep[id])
	}
	return dst
}

// EntryChiNode returns the logical ID of the entry chi of (f, obj), or -1.
func (g *Graph) EntryChiNode(f *ir.Function, obj *ir.Object) int {
	if fi, ok := g.funcs[f]; ok {
		if k, has := fi.refMod.Rank(uint32(obj.ID)); has {
			return fi.entry + k
		}
	}
	return -1
}

// ExitPhiNode returns the logical ID of the exit phi of (f, obj), or -1.
// The exit phi of main holds an object's final points-to set, which is
// what the facade reports for whole-program queries.
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

	// logs holds every logical node the thread-oblivious steps create, by
	// logical ID, until compact stores the representatives as Nodes.
	logs []logNode
	// logOf maps each physical ID back to the logical ID it stands for.
	logOf []int32
	// ren is memory-SSA renaming's scratch, reused across functions.
	ren renamer

	// memEdges and loadEdges record the thread-oblivious edges in
	// construction order, duplicates included, between logical IDs.
	// compact groups them by target into oblMem and oblLoad, the distinct
	// constructed in-sources of every logical node and load, which
	// [THREAD-VF] dedups against.
	memEdges, loadEdges []pair
	oblMem, oblLoad     csr
	// repMem and repLoad are those edges between representatives, by
	// physical ID and grouped by target, until adjacency turns them into
	// Out, In and LoadIn.
	repMem, repLoad csr

	// funcInsts lists the thread model's instances per function, for the
	// PCG configuration's lock filter.
	funcInsts map[*ir.Function][]mhp.InstanceFact

	cancel *engine.Canceller
}

// logNode is a logical memory node during construction: what storing it as
// a MemNode takes, with no pointers. fn indexes Prog.Funcs, blk the
// function's blocks (-1 for none) and stmt is ir.NoStmt for a node of no
// statement.
type logNode struct {
	kind MemKind
	obj  ir.ObjID
	stmt ir.StmtID
	fn   int32
	blk  int32
}

// funcInfo is a function's Ref ∪ Mod set and the logical IDs of its first
// entry chi and first exit phi. Both runs are consecutive: one entry chi
// per element of refMod and one exit phi per element of Mod, in ascending
// object order.
type funcInfo struct {
	refMod      *pts.Set
	entry, exit int
}

// appendDoubling appends x to s, doubling the capacity when s is full: for
// the large construction lists, append's own growth, a quarter at a time
// past a few hundred elements, copies each element about four times.
func appendDoubling[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, x)
}

// newNode creates a logical node and returns its ID.
func (b *gbuilder) newNode(kind MemKind, obj ir.ObjID, stmt ir.StmtID, fn, blk int32) int {
	b.logs = appendDoubling(b.logs, logNode{kind: kind, obj: obj, stmt: stmt, fn: fn, blk: blk})
	return len(b.logs) - 1
}

// addNode stores n, created after compaction, as its own representative
// and returns its logical ID.
func (b *gbuilder) addNode(n *MemNode) int {
	g := b.g
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	b.logOf = append(b.logOf, int32(len(g.Rep)))
	g.Rep = append(g.Rep, int32(n.ID))
	return len(g.Rep) - 1
}

// addMemEdge records the thread-oblivious edge def → MemNode.
func (b *gbuilder) addMemEdge(from, to int) {
	if from < 0 || to < 0 || from == to {
		return
	}
	b.memEdges = appendDoubling(b.memEdges, pair{from: int32(from), to: int32(to)})
}

// addLoadEdge records the thread-oblivious edge def → load.
func (b *gbuilder) addLoadEdge(from int, l *ir.Load) {
	if from < 0 {
		return
	}
	b.loadEdges = appendDoubling(b.loadEdges, pair{from: int32(from), to: int32(l.ID())})
}

// addThreadMemEdge adds the [THREAD-VF] edge between the store chis with
// logical IDs from → to to the compacted graph, unless construction
// already made the same thread-oblivious edge.
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

// linkMem stores the [THREAD-VF] edge from → to between the nodes with
// those logical IDs, which represent themselves.
func (b *gbuilder) linkMem(from, to int, ungated bool) {
	g := b.g
	pf, pt := g.Rep[from], g.Rep[to]
	g.Out[pf] = append(g.Out[pf], Edge{ToMem: int(pt), ThreadAware: true, Ungated: ungated})
	g.In[pt] = append(g.In[pt], int(pf))
	g.StoredThreadEdges++
}

// linkLoad stores the [THREAD-VF] edge from → l.
func (b *gbuilder) linkLoad(from int, l *ir.Load, ungated bool) {
	g := b.g
	pf := g.Rep[from]
	g.Out[pf] = append(g.Out[pf], Edge{ToMem: -1, ToLoad: l, ThreadAware: true, Ungated: ungated})
	g.LoadIn[l] = append(g.LoadIn[l], Edge{ToMem: int(pf), ToLoad: l, ThreadAware: true, Ungated: ungated})
	g.StoredThreadEdges++
}

// ---- Thread-oblivious construction (memory SSA over Pseq) ----

func (b *gbuilder) buildOblivious() error {
	g := b.g
	// Pre-create entry chis and exit phis so interprocedural edges can be
	// wired during each function's renaming regardless of order.
	for fn, f := range g.Prog.Funcs {
		refMod := g.MR.Ref(f).Copy()
		refMod.UnionWith(g.MR.Mod(f))
		fi := funcInfo{refMod: refMod, entry: len(b.logs)}
		refMod.ForEach(func(id uint32) {
			b.newNode(MEntryChi, ir.ObjID(id), ir.NoStmt, int32(fn), -1)
		})
		fi.exit = len(b.logs)
		g.funcs[f] = fi
		g.MR.Mod(f).ForEach(func(id uint32) {
			b.newNode(MExitPhi, ir.ObjID(id), ir.NoStmt, int32(fn), -1)
		})
	}
	b.ren.rank = make([]int32, len(g.Prog.Objects))
	for i := range b.ren.rank {
		b.ren.rank[i] = -1
	}
	for fn, f := range g.Prog.Funcs {
		if b.cancel.Cancelled() {
			return b.cancel.Err()
		}
		b.renameFunc(f, int32(fn))
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

// renamer is memory-SSA renaming's state for one function, reused across
// functions. Objects are numbered by their rank in the function's Ref ∪
// Mod, which holds every object the function defines or reads (ModRef's
// closure covers each callee the renaming visits), and blocks by index.
type renamer struct {
	f  *ir.Function
	fn int32
	d  *dom.Info
	// rank[o] is object o's rank, -1 for an object outside Ref ∪ Mod; objs
	// lists the objects by rank.
	rank []int32
	objs []uint32
	// cur[r] is the current definition of the object of rank r. undo logs
	// the definitions a dominator subtree replaced, to restore on leaving it.
	cur  []int32
	undo []rankNode
	// defs[r] lists the blocks defining the object of rank r, each once, in
	// statement order; phis[i] the memory phis of block i, in ascending
	// object order. Both keep their rows' storage across functions.
	defs [][]*ir.Block
	phis [][]rankNode
}

// rankNode pairs an object's rank with a logical node.
type rankNode struct{ rank, node int32 }

// def returns the current definition of object obj, or -1.
func (r *renamer) def(obj uint32) int {
	if k := r.rank[obj]; k >= 0 {
		return int(r.cur[k])
	}
	return -1
}

// set makes node the current definition of the object of rank k.
func (r *renamer) set(k int32, node int) {
	r.undo = append(r.undo, rankNode{rank: k, node: r.cur[k]})
	r.cur[k] = int32(node)
}

// rows returns s resized to n empty rows, reusing its rows' storage.
func rows[T any](s [][]T, n int) [][]T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// renameFunc performs block-level memory-SSA construction for one function.
func (b *gbuilder) renameFunc(f *ir.Function, fn int32) {
	g := b.g
	if f.Entry == nil {
		return
	}
	fi := g.funcs[f]
	if fi.refMod.IsEmpty() {
		return
	}
	r := &b.ren
	r.f, r.fn, r.d = f, fn, dom.Compute(f)
	r.objs = r.objs[:0]
	fi.refMod.ForEach(func(id uint32) {
		r.rank[id] = int32(len(r.objs))
		r.objs = append(r.objs, id)
	})
	b.placePhis()

	// Renaming along the dominator tree: every object starts at its entry
	// chi.
	r.cur = slices.Grow(r.cur[:0], len(r.objs))[:len(r.objs)]
	for k := range r.cur {
		r.cur[k] = int32(fi.entry + k)
	}
	b.renameBlock(f.Entry)
	for _, id := range r.objs {
		r.rank[id] = -1
	}
}

// placePhis places the memory phis of the function being renamed at the
// iterated dominance frontiers of each object's definition blocks.
func (b *gbuilder) placePhis() {
	g := b.g
	r := &b.ren
	r.defs = rows(r.defs, len(r.objs))
	addDef := func(id uint32, blk *ir.Block) {
		k := r.rank[id]
		if d := r.defs[k]; len(d) == 0 || d[len(d)-1] != blk {
			r.defs[k] = append(d, blk)
		}
	}
	for _, blk := range r.f.Blocks {
		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.Store:
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) { addDef(id, blk) })
			case *ir.Call, *ir.Fork:
				for _, callee := range b.calleesAt(s) {
					g.MR.Mod(callee).ForEach(func(id uint32) { addDef(id, blk) })
				}
			case *ir.Join:
				g.MR.JoinMods(s).ForEach(func(id uint32) { addDef(id, blk) })
			}
		}
	}
	// Phis are created object by object, ascending, so node IDs do not
	// depend on the order definitions were found in.
	r.phis = rows(r.phis, len(r.f.Blocks))
	for k, blks := range r.defs {
		if len(blks) == 0 {
			continue
		}
		for _, fb := range r.d.IteratedFrontier(blks) {
			node := b.newNode(MPhi, ir.ObjID(r.objs[k]), ir.NoStmt, r.fn, int32(fb.Index))
			r.phis[fb.Index] = append(r.phis[fb.Index], rankNode{rank: int32(k), node: int32(node)})
		}
	}
}

// renameBlock renames blk and the blocks it dominates, then restores the
// definitions it replaced.
func (b *gbuilder) renameBlock(blk *ir.Block) {
	g := b.g
	r := &b.ren
	mark := len(r.undo)
	for _, p := range r.phis[blk.Index] {
		r.set(p.rank, int(p.node))
	}
	bi := int32(blk.Index)
	for _, s := range blk.Stmts {
		switch s := s.(type) {
		case *ir.Load:
			g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
				b.addLoadEdge(r.def(id), s)
			})

		case *ir.Store:
			g.storeChis[s.ID()] = int32(len(b.logs))
			g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
				chi := b.newNode(MStoreChi, ir.ObjID(id), s.ID(), r.fn, bi)
				// Weak-in edge: the old contents flow into the chi; the
				// solver kills them when a strong update applies.
				b.addMemEdge(r.def(id), chi)
				r.set(r.rank[id], chi)
			})

		case *ir.Call, *ir.Fork, *ir.Join:
			b.renameCall(s, bi)

		case *ir.Ret:
			ep := g.funcs[r.f].exit
			g.MR.Mod(r.f).ForEach(func(id uint32) {
				b.addMemEdge(r.def(id), ep)
				ep++
			})
		}
	}

	// Fill memory-phi inputs of CFG successors.
	for _, succ := range blk.Succs {
		for _, p := range r.phis[succ.Index] {
			b.addMemEdge(int(r.cur[p.rank]), int(p.node))
		}
	}

	for _, child := range r.d.Children(blk) {
		b.renameBlock(child)
	}
	for i := len(r.undo) - 1; i >= mark; i-- {
		u := r.undo[i]
		r.cur[u.rank] = u.node
	}
	r.undo = r.undo[:mark]
}

// renameCall renames a call, fork or join site s in block bi: the current
// definitions flow into the callees' entry chis (mu), and a chi per object
// the site may modify takes the callees' exit values.
func (b *gbuilder) renameCall(s ir.Stmt, bi int32) {
	g := b.g
	r := &b.ren
	callees := b.calleesAt(s)
	if len(callees) == 0 {
		return
	}
	_, isFork := s.(*ir.Fork)
	join, isJoin := s.(*ir.Join)

	// mu: current versions flow into callee entry chis.
	for _, callee := range callees {
		b.forEachEntryChi(callee, func(id uint32, ec int) {
			b.addMemEdge(r.def(id), ec)
		})
	}
	// modHere is what the callees may modify.
	modHere := g.MR.Mod(callees[0])
	if len(callees) > 1 {
		modHere = &pts.Set{}
		for _, callee := range callees {
			modHere.UnionWith(g.MR.Mod(callee))
		}
	}
	someKeeps := func(id uint32) bool {
		for _, callee := range callees {
			if !g.MR.Mod(callee).Has(id) {
				return true
			}
		}
		return false
	}
	kind := MCallChi
	if isJoin {
		// Joins only absorb the joined routines' mods.
		modHere = g.MR.JoinMods(join)
		kind = MJoinChi
	}

	// chi: callee exit versions define the object here, in ascending
	// object order.
	modHere.ForEach(func(id uint32) {
		obj := g.Prog.Objects[id]
		chi := b.newNode(kind, ir.ObjID(id), s.ID(), r.fn, bi)
		for _, callee := range callees {
			b.addMemEdge(g.ExitPhiNode(callee, obj), chi)
		}
		// Joins merge the routine's exit state with the current value (the
		// spawner may have written in parallel); calls with a non-modifying
		// callee flow through. Fork chis are strong: the deferred-execution
		// case (Step 2) is handled by separate bypass edges from the
		// pre-fork definition to every use between the fork and its join
		// (see buildForkBypass).
		if isJoin || !isFork && someKeeps(id) {
			b.addMemEdge(r.def(id), chi)
		}
		if isFork {
			fk := s.(*ir.Fork)
			if b.forkDefs[fk] == nil {
				b.forkDefs[fk] = map[ir.ObjID]int{}
			}
			b.forkDefs[fk][ir.ObjID(id)] = r.def(id)
		}
		r.set(r.rank[id], chi)
	})
}
