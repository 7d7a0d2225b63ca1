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
// locking function's entry without passing the acquisition — read off one
// dominator tree per function instance as "strictly dominated by the
// acquisition" (region.go) — and (c) inside the locking function or its
// callees. Locks are matched only through must-alias singleton lock
// objects; acquisitions in recursive functions produce no span. Span
// heads/tails are over-approximated (may-reach), which only reduces
// filtering.
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

	// size is the number of context-qualified statements in the span; they
	// are indexed in Result.spansOf.
	size int

	// accesses are the span's Load/Store nodes, in discovery order.
	accesses []nodeCtx

	// reach[i] lists indices of accesses reachable from accesses[i] within
	// the span (never i itself).
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

// Analyze discovers all lock-release spans, in thread order and, within a
// thread, in the order its walk reached each function instance.
func Analyze(model *threads.Model) *Result {
	r := &Result{
		Model:   model,
		Pre:     model.Pre,
		spansOf: map[instKey][]*Span{},
	}
	regions := map[threads.FuncCtx]*region{}
	for _, t := range model.Threads {
		for _, fc := range model.FuncOrder(t) {
			for _, b := range fc.Func.Blocks {
				for _, s := range b.Stmts {
					if l, ok := s.(*ir.Lock); ok {
						r.buildSpan(t, fc, l, regions)
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

// buildSpan constructs the span for one context-sensitive acquisition,
// cutting it from the region of the locking function instance (built on
// first use and shared by the instance's acquisitions).
func (r *Result) buildSpan(t *threads.Thread, fc threads.FuncCtx, l *ir.Lock, regions map[threads.FuncCtx]*region) {
	m := r.Model
	lockObj := r.mustLockObj(l.Ptr)
	if lockObj == nil {
		return
	}
	if m.CG.InRecursion(fc.Func) {
		return // cannot bound the region in recursive code (sound skip)
	}
	lockNode := m.G.StmtNode[l]
	if lockNode == nil {
		return
	}
	rg := regions[fc]
	if rg == nil {
		rg = newRegion(m, fc)
		regions[fc] = rg
	}

	// Walk A: nodes forward-reachable from the acquisition without passing
	// a may-release of the lock, confined to the locking function and its
	// callees. A member must also lie outside walk B (reachable from the
	// entry without passing the acquisition): lockedAt reads that off the
	// dominator tree.
	li := rg.index(lockNode, fc.Ctx)
	sp := &Span{
		ID:      len(r.Spans),
		Thread:  t,
		Lock:    l,
		Ctx:     fc.Ctx,
		LockObj: lockObj,
	}
	rg.gen++
	spanGen := rg.gen
	var accessAt []int32 // region index of each access
	admit := func(i int32) {
		n, ctx := rg.node(i)
		if n.Kind != icfg.NStmt || !rg.lockedAt(li, i) {
			return
		}
		nd := &rg.nodes[i]
		nd.member, nd.accIdx = spanGen, -1
		sp.size++
		key := instKey{thread: t.ID, ctx: ctx, stmt: n.Stmt.ID()}
		r.spansOf[key] = append(r.spansOf[key], sp)
		if ir.IsMemAccess(n.Stmt) {
			nd.accIdx = int32(len(sp.accesses))
			sp.accesses = append(sp.accesses, nodeCtx{node: n, ctx: ctx})
			accessAt = append(accessAt, i)
		}
	}
	admit(li)
	rg.walk(li, func(j int32) bool {
		admit(j)
		n, _ := rg.node(j)
		u, ok := stmtOf(n).(*ir.Unlock)
		return !ok || !r.mayReleaseLock(u, lockObj) // the release ends the span on this path
	})
	if sp.size == 0 {
		return
	}
	r.Spans = append(r.Spans, sp)

	// Access reach: for each access, the accesses reachable from it through
	// span members.
	sp.reach = make([][]int, len(sp.accesses))
	for k, a := range accessAt {
		rg.walk(a, func(j int32) bool {
			nd := &rg.nodes[j]
			if nd.member != spanGen {
				return false
			}
			if x := nd.accIdx; x >= 0 {
				sp.reach[k] = append(sp.reach[k], int(x))
			}
			return true
		})
	}
}

func stmtOf(n *icfg.Node) ir.Stmt {
	if n.Kind == icfg.NStmt {
		return n.Stmt
	}
	return nil
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
		total += uint64(sp.size)*24 + uint64(len(sp.accesses))*16
		for _, rr := range sp.reach {
			total += uint64(len(rr)) * 8
		}
	}
	return total
}
