// Package locks implements the paper's lock analysis (Section 3.3.3): flow-
// and context-sensitive lock-release spans (Definition 3), per-object span
// heads and tails (Definitions 4 and 5), and the non-interference lock-pair
// filter (Definition 6) that removes spurious [THREAD-VF] def-use edges
// between mutually exclusive regions.
//
// Soundness notes. Span membership must be a MUST property (a statement is
// in a span only if it always holds the lock when executed), so spans are
// under-approximated: a context-qualified node belongs to the span of a lock
// acquisition only when it is (a) forward-reachable from the acquisition
// without passing a may-release of the same lock, (b) not reachable from the
// locking function's entry without passing the acquisition, and (c) inside
// the locking function or its callees. Locks are matched only through
// must-alias singleton lock objects; acquisitions in recursive functions
// produce no span. Span heads/tails are over-approximated (may-reach), which
// only reduces filtering.
package locks

import (
	"slices"
	"sync"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/threads"
)

// Inst is a context-sensitive statement instance executed by a thread.
type Inst struct {
	Thread *threads.Thread
	Ctx    callgraph.Ctx
	Stmt   ir.Stmt
}

// nodeCtx is a context-qualified ICFG node.
type nodeCtx struct {
	node *icfg.Node
	ctx  callgraph.Ctx
}

// Span is one lock-release span: the statements executed with a given lock
// held, from one context-sensitive acquisition (Definition 3).
type Span struct {
	ID      int
	Thread  *threads.Thread
	Lock    *ir.Lock
	Ctx     callgraph.Ctx
	LockObj *ir.Object

	// nodes are the context-qualified statements in the span.
	nodes map[nodeCtx]bool

	// accesses are the span's Load/Store nodes, in discovery order.
	accesses []nodeCtx

	// reach[i] lists indices of accesses reachable from accesses[i] within
	// the span (exclusive of i itself unless through a cycle).
	reach [][]int

	// pred[i] lists the indices j with i in reach[j]. It is built on the
	// first head query; predOnce guards it, as a completed Result may be
	// queried from concurrent readers.
	predOnce sync.Once
	pred     [][]int
}

// Result is the computed lock analysis.
type Result struct {
	Model *threads.Model
	Pre   *andersen.Result

	Spans []*Span

	// spansOf indexes spans by the context-qualified statements they
	// contain, per thread.
	spansOf map[instKey][]*Span
}

type instKey struct {
	thread int
	ctx    callgraph.Ctx
	stmt   ir.StmtID
}

// Analyze discovers all lock-release spans.
func Analyze(model *threads.Model) *Result {
	r := &Result{
		Model:   model,
		Pre:     model.Pre,
		spansOf: map[instKey][]*Span{},
	}
	for _, t := range model.Threads {
		for fc := range model.Funcs(t) {
			for _, b := range fc.Func.Blocks {
				for _, s := range b.Stmts {
					if l, ok := s.(*ir.Lock); ok {
						r.buildSpan(t, fc.Ctx, l)
					}
				}
			}
		}
	}
	return r
}

// mustLockObj resolves ptr to a singleton must-alias lock object, or nil.
func (r *Result) mustLockObj(ptr *ir.Var) *ir.Object {
	set := r.Pre.PointsToVar(ptr)
	id, ok := set.Single()
	if !ok {
		return nil
	}
	obj := r.Pre.Obj(id)
	// Must-alias requires a singleton runtime object: a global or a
	// non-recursive stack lock; heap locks and arrays of locks are skipped.
	switch obj.Kind {
	case ir.ObjGlobal:
	case ir.ObjStack, ir.ObjField:
		root := obj.Root()
		if root.Func != nil && r.Model.CG.InRecursion(root.Func) {
			return nil
		}
		if root.Kind == ir.ObjHeap {
			return nil
		}
	default:
		return nil
	}
	if obj.IsArray || obj.Root().IsArray {
		return nil
	}
	return obj
}

// mayReleaseLock reports whether an unlock may release obj.
func (r *Result) mayReleaseLock(u *ir.Unlock, obj *ir.Object) bool {
	return r.Pre.PointsToVar(u.Ptr).Has(uint32(obj.ID))
}

// buildSpan constructs the span for one context-sensitive acquisition.
func (r *Result) buildSpan(t *threads.Thread, ctx callgraph.Ctx, l *ir.Lock) {
	m := r.Model
	lockObj := r.mustLockObj(l.Ptr)
	if lockObj == nil {
		return
	}
	lockFunc := ir.StmtFunc(l)
	if lockFunc == nil || m.CG.InRecursion(lockFunc) {
		return // cannot bound the region in recursive code (sound skip)
	}
	lockNode := m.G.StmtNode[l]
	if lockNode == nil {
		return
	}

	// A: nodes forward-reachable from the acquisition without passing a
	// may-release of the lock, confined to lockFunc and its callees.
	reached := map[nodeCtx]bool{}
	start := nodeCtx{node: lockNode, ctx: ctx}
	reached[start] = true
	frontier := []nodeCtx{start}
	for len(frontier) > 0 {
		nc := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if u, ok := stmtOf(nc.node).(*ir.Unlock); ok && nc != start {
			if r.mayReleaseLock(u, lockObj) {
				continue // the release ends the span on this path
			}
		}
		for _, next := range r.succsWithin(nc, ctx, lockFunc) {
			if !reached[next] {
				reached[next] = true
				frontier = append(frontier, next)
			}
		}
	}

	// B: nodes reachable from lockFunc's entry (same ctx) without passing
	// the acquisition; these may execute without the lock and must be
	// excluded.
	unlockedReach := map[nodeCtx]bool{}
	entry := m.G.EntryOf[lockFunc]
	if entry != nil {
		startB := nodeCtx{node: entry, ctx: ctx}
		unlockedReach[startB] = true
		frontier = []nodeCtx{startB}
		for len(frontier) > 0 {
			nc := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if nc.node == lockNode && nc.ctx == ctx {
				continue // blocked at the acquisition
			}
			for _, next := range r.succsWithin(nc, ctx, lockFunc) {
				if !unlockedReach[next] {
					unlockedReach[next] = true
					frontier = append(frontier, next)
				}
			}
		}
	}

	sp := &Span{
		ID:      len(r.Spans),
		Thread:  t,
		Lock:    l,
		Ctx:     ctx,
		LockObj: lockObj,
		nodes:   map[nodeCtx]bool{},
	}
	for nc := range reached {
		if unlockedReach[nc] {
			continue
		}
		if nc.node.Kind != icfg.NStmt {
			continue
		}
		sp.nodes[nc] = true
		if ir.IsMemAccess(nc.node.Stmt) {
			sp.accesses = append(sp.accesses, nc)
		}
	}
	if len(sp.nodes) == 0 {
		return
	}
	sp.computeAccessReach(r, ctx, lockFunc, lockObj)
	r.Spans = append(r.Spans, sp)
	for nc := range sp.nodes {
		key := instKey{thread: t.ID, ctx: nc.ctx, stmt: nc.node.Stmt.ID()}
		r.spansOf[key] = append(r.spansOf[key], sp)
	}
}

func stmtOf(n *icfg.Node) ir.Stmt {
	if n.Kind == icfg.NStmt {
		return n.Stmt
	}
	return nil
}

// succsWithin yields the context-qualified successors of nc staying inside
// baseFunc and its callees: intra edges, call edges (context push, SCC
// merged), and matched return edges that do not pop past baseCtx.
func (r *Result) succsWithin(nc nodeCtx, baseCtx callgraph.Ctx, baseFunc *ir.Function) []nodeCtx {
	m := r.Model
	var out []nodeCtx
	for _, e := range nc.node.Out {
		switch e.Kind {
		case icfg.EIntra:
			out = append(out, nodeCtx{node: e.To, ctx: nc.ctx})
		case icfg.ECall:
			callee := e.To.Func
			nctx := nc.ctx
			if !m.CG.SameSCC(nc.node.Func, callee) {
				nctx = m.Ctxs.Push(nc.ctx, e.Site.ID())
			}
			out = append(out, nodeCtx{node: e.To, ctx: nctx})
		case icfg.ERet:
			if nc.node.Func == baseFunc && nc.ctx == baseCtx {
				continue // never leave the locking function
			}
			if m.Ctxs.Peek(nc.ctx) == e.Site.ID() {
				out = append(out, nodeCtx{node: e.To, ctx: m.Ctxs.Pop(nc.ctx)})
			}
		}
	}
	return out
}

// computeAccessReach precomputes, for each memory access in the span, which
// other accesses are forward-reachable from it within the span.
func (sp *Span) computeAccessReach(r *Result, baseCtx callgraph.Ctx, baseFunc *ir.Function, lockObj *ir.Object) {
	idx := make(map[nodeCtx]int, len(sp.accesses))
	for i, a := range sp.accesses {
		idx[a] = i
	}
	sp.reach = make([][]int, len(sp.accesses))
	for i, a := range sp.accesses {
		seen := map[nodeCtx]bool{a: true}
		frontier := []nodeCtx{a}
		for len(frontier) > 0 {
			nc := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, next := range r.succsWithin(nc, baseCtx, baseFunc) {
				if !sp.nodes[next] || seen[next] {
					continue
				}
				seen[next] = true
				frontier = append(frontier, next)
				if j, ok := idx[next]; ok {
					sp.reach[i] = append(sp.reach[i], j)
				}
			}
		}
	}
}

// accessTouches reports whether the access statement may touch obj, and
// whether it is a store.
func (r *Result) accessTouches(s ir.Stmt, obj *ir.Object) (touches, isStore bool) {
	switch s := s.(type) {
	case *ir.Load:
		return r.Pre.PointsToVar(s.Addr).Has(uint32(obj.ID)), false
	case *ir.Store:
		return r.Pre.PointsToVar(s.Addr).Has(uint32(obj.ID)), true
	}
	return false, false
}

// preds returns pred, building it on first use.
func (sp *Span) preds() [][]int {
	sp.predOnce.Do(func() {
		sp.pred = make([][]int, len(sp.accesses))
		for j, rr := range sp.reach {
			for _, i := range rr {
				sp.pred[i] = append(sp.pred[i], j)
			}
		}
	})
	return sp.pred
}

// storesObj reports whether the span's k-th access is a store that may
// touch obj.
func (sp *Span) storesObj(r *Result, k int, obj *ir.Object) bool {
	touches, isStore := r.accessTouches(sp.accesses[k].node.Stmt, obj)
	return touches && isStore
}

// headTail reports whether nc is in HD(sp, obj) — an access of obj that no
// other span-internal store of obj reaches (Definition 4) — and in
// TL(sp, obj) — a store of obj that reaches no other span-internal store of
// obj (Definition 5).
func (sp *Span) headTail(r *Result, nc nodeCtx, obj *ir.Object) (head, tail bool) {
	i := slices.Index(sp.accesses, nc)
	if i < 0 {
		return false, false
	}
	touches, isStore := r.accessTouches(nc.node.Stmt, obj)
	if !touches {
		return false, false
	}
	head = true
	for _, j := range sp.preds()[i] {
		if j != i && sp.storesObj(r, j, obj) {
			head = false
			break
		}
	}
	if isStore {
		tail = true
		for _, k := range sp.reach[i] {
			if k != i && sp.storesObj(r, k, obj) {
				tail = false
				break
			}
		}
	}
	return head, tail
}

// SpanPos is where a statement instance sits in one span containing it,
// for one object: whether it is in HD(Span, obj) and in TL(Span, obj).
type SpanPos struct {
	Span       *Span
	Head, Tail bool
}

// HeadTail appends to buf, for each span containing in in SpansOf order,
// whether in is a head and a tail of that span for obj, and returns the
// extended buf. It is the one implementation of Definitions 4 and 5 that
// NonInterfering and the [THREAD-VF] builder's access classes read; it
// keeps no per-object state.
func (r *Result) HeadTail(in Inst, obj *ir.Object, buf []SpanPos) []SpanPos {
	spans := r.SpansOf(in)
	if len(spans) == 0 {
		return buf
	}
	nc := nodeCtx{node: r.Model.G.StmtNode[in.Stmt], ctx: in.Ctx}
	for _, sp := range spans {
		hd, tl := sp.headTail(r, nc, obj)
		buf = append(buf, SpanPos{Span: sp, Head: hd, Tail: tl})
	}
	return buf
}

// AccessStmts returns the span's Load/Store statements in discovery
// order. Duplicates are possible when one statement is reached under
// several contexts; callers that need a set should deduplicate.
func (sp *Span) AccessStmts() []ir.Stmt {
	out := make([]ir.Stmt, len(sp.accesses))
	for i, a := range sp.accesses {
		out[i] = a.node.Stmt
	}
	return out
}

// SpansOf returns the spans containing the given instance.
func (r *Result) SpansOf(in Inst) []*Span {
	return r.spansOf[instKey{thread: in.Thread.ID, ctx: in.Ctx, stmt: in.Stmt.ID()}]
}

// NonInterfering implements Definition 6: the MHP pair (store, access) on
// object obj is non-interfering when both instances sit in spans of a
// common lock and the store is not a span tail or the access is not a span
// head for obj.
func (r *Result) NonInterfering(store, access Inst, obj *ir.Object) bool {
	var sbuf, abuf [4]SpanPos
	st := r.HeadTail(store, obj, sbuf[:0])
	if len(st) == 0 {
		return false
	}
	return NonInterferingAt(st, r.HeadTail(access, obj, abuf[:0]))
}

// NonInterferingAt is Definition 6 over the HeadTail positions of a store
// instance and an access instance for one object: some common lock's span
// holds the store at a non-tail or the access at a non-head position.
func NonInterferingAt(store, access []SpanPos) bool {
	for _, p1 := range store {
		for _, p2 := range access {
			if p1.Span.LockObj == p2.Span.LockObj && (!p1.Tail || !p2.Head) {
				return true
			}
		}
	}
	return false
}

// NumSpans returns the number of discovered spans.
func (r *Result) NumSpans() int { return len(r.Spans) }

// Bytes reports the approximate footprint of span data.
func (r *Result) Bytes() uint64 {
	var total uint64
	for _, sp := range r.Spans {
		total += uint64(len(sp.nodes))*24 + uint64(len(sp.accesses))*16
		for _, rr := range sp.reach {
			total += uint64(len(rr)) * 8
		}
	}
	return total
}
