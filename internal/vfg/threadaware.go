package vfg

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
)

// access is one Load or Store as [THREAD-VF] construction sees it, with
// everything the pair enumeration needs read once per statement.
type access struct {
	stmt  ir.Stmt
	store *ir.Store // nil for a load
	// objs are the objects the address may point to that the enumeration
	// considers, ascending. For a store, chis[k] is its chi node for
	// objs[k], or -1 when the store has none (unreachable code).
	objs []uint32
	chis []int
	// insts are the (thread, ctx) instances executing the statement, with
	// their interleaving facts (nil facts under PCG). spans[i] reports
	// whether insts[i] sits in a lock span; spans is nil when none does.
	insts []mhp.InstanceFact
	spans []bool
}

// buildThreadAware adds the [THREAD-VF] def-use edges (Section 3.3.2): for
// every MHP store-load or store-store pair with a common pointed-to object
// o ∈ AS(*p,*q), an edge from the store's chi of o to the peer access. The
// lock analysis filters non-interference pairs (Definition 6); the
// No-Value-Flow ablation drops the aliasing premise and connects every MHP
// pair over all objects the store may define.
//
// Candidate pairs come from a per-object index of the accesses, so the work
// is proportional to the aliasing (store, access) statement pairs, not to
// (object, store, access) triples: each pair decides MHP once, then walks
// its common objects. Stores are visited in statement order, each store's
// peers in ascending order and the common objects in ascending ID order,
// so the graph is the same on every run.
func (b *gbuilder) buildThreadAware() error {
	g := b.g
	prog := g.Prog
	if b.opt.Interleave == nil {
		b.funcInsts = b.threadModelInstances()
	}
	if b.opt.NoValueFlow {
		return b.buildNoValueFlow()
	}

	// Read each access's address points-to set once into one flat buffer
	// (raw[i] owns buf[lo:hi]), and note the objects some store may
	// define: only those can carry an edge.
	type rawAccess struct {
		stmt   ir.Stmt
		lo, hi int32
	}
	stored := make([]bool, len(prog.Objects))
	raw := make([]rawAccess, 0, len(prog.Stmts))
	var buf []uint32
	for _, s := range prog.Stmts {
		var addr *ir.Var
		isStore := false
		switch s := s.(type) {
		case *ir.Store:
			addr, isStore = s.Addr, true
		case *ir.Load:
			addr = s.Addr
		default:
			continue
		}
		lo := len(buf)
		g.Pre.PointsToVar(addr).ForEach(func(id uint32) { buf = append(buf, id) })
		if isStore {
			for _, id := range buf[lo:] {
				stored[id] = true
			}
		}
		if len(buf) > lo {
			raw = append(raw, rawAccess{stmt: s, lo: int32(lo), hi: int32(len(buf))})
		}
	}

	// Thread-escape pruning: a non-Shared object has no accessor pair that
	// may run in parallel, so statement-level MHP — which refines
	// thread-level MHP — would reject every candidate pair on it. Leaving
	// it out of the index is result-identical; it only saves the MHP and
	// lock-filter work.
	//
	// slot[id] is 1 + the row of byObj for an indexed object, 0 otherwise.
	slot := make([]int32, len(prog.Objects))
	rows := int32(0)
	for id, ok := range stored {
		if !ok {
			continue
		}
		if b.opt.Escape != nil && !b.opt.Escape.IsShared(ir.ObjID(id)) {
			g.FilteredByEscape++
			continue
		}
		rows++
		slot[id] = rows
	}

	// Keep only the indexed objects of each access, in place in buf.
	kept := 0
	for i, r := range raw {
		hi := r.lo
		for _, id := range buf[r.lo:r.hi] {
			if slot[id] > 0 {
				buf[hi] = id
				hi++
			}
		}
		raw[i].hi = hi
		if hi > r.lo {
			kept++
		}
	}

	// accs are the accesses touching an indexed object; a row of byObj
	// lists the indices into accs of the accesses that may touch its object.
	accs := make([]access, 0, kept)
	byObj := make([][]int32, rows)
	for _, r := range raw {
		if r.hi == r.lo {
			continue
		}
		objs := buf[r.lo:r.hi:r.hi]
		a := access{stmt: r.stmt, objs: objs}
		for _, id := range objs {
			byObj[slot[id]-1] = append(byObj[slot[id]-1], int32(len(accs)))
		}
		if s, ok := r.stmt.(*ir.Store); ok {
			a.store = s
			a.chis = make([]int, len(objs))
			for k, id := range objs {
				a.chis[k] = g.StoreChiNode(s, prog.Objects[id])
			}
		}
		a.insts, a.spans = b.instances(a.stmt)
		accs = append(accs, a)
	}

	// stamp[j] == si+1 once accs[j] was taken as a peer of store si. Both
	// orders of a store/store pair are visited: each direction is its own
	// edge.
	stamp := make([]int32, len(accs))
	var peers []int32
	for si := range accs {
		sa := &accs[si]
		if sa.store == nil {
			continue
		}
		mark := int32(si + 1)
		peers = peers[:0]
		for _, id := range sa.objs {
			for _, j := range byObj[slot[id]-1] {
				if stamp[j] != mark && int(j) != si {
					stamp[j] = mark
					peers = append(peers, j)
				}
			}
		}
		slices.Sort(peers)
		for _, j := range peers {
			if b.cancel.Cancelled() {
				return b.cancel.Err()
			}
			pa := &accs[j]
			mhpPair := b.pairMHP(sa, pa)
			forCommon(sa.objs, pa.objs, func(k, l int) {
				switch {
				case !mhpPair:
					g.FilteredByVF++
				case b.lockFiltered(sa, pa, prog.Objects[sa.objs[k]]):
					g.FilteredByLock++
				default:
					b.connect(sa, pa, k, l)
				}
			})
		}
	}
	return nil
}

// buildNoValueFlow is the No-Value-Flow ablation: every MHP store-access
// pair gets an edge for every object the store may define, whether or not
// the access aliases it. Peers are all loads, then all other stores, in
// statement order.
func (b *gbuilder) buildNoValueFlow() error {
	g := b.g
	var loads, stores []access
	for _, s := range g.Prog.Stmts {
		a := access{stmt: s}
		switch s := s.(type) {
		case *ir.Store:
			a.store = s
			a.objs = g.Pre.PointsToVar(s.Addr).Elems()
		case *ir.Load:
			a.objs = g.Pre.PointsToVar(s.Addr).Elems()
		default:
			continue
		}
		a.insts, a.spans = b.instances(s)
		if a.store != nil {
			stores = append(stores, a)
		} else {
			loads = append(loads, a)
		}
	}
	peers := append(loads, stores...)
	for si := range stores {
		sa := &stores[si]
		for pi := range peers {
			pa := &peers[pi]
			if pa.stmt == sa.stmt {
				continue
			}
			if b.cancel.Cancelled() {
				return b.cancel.Err()
			}
			if !b.pairMHP(sa, pa) {
				continue
			}
			for _, id := range sa.objs {
				obj := g.Prog.Objects[id]
				if b.lockFiltered(sa, pa, obj) {
					g.FilteredByLock++
					continue
				}
				b.connectAblation(sa, pa, obj)
			}
		}
	}
	return nil
}

// forCommon calls f(i, j) for every a[i] == b[j] of the ascending slices a
// and b, in ascending order.
func forCommon(a, b []uint32, f func(i, j int)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			f(i, j)
			i++
			j++
		}
	}
}

// connect adds the thread-aware edge from store sa's chi of sa.objs[k] to
// peer pa, whose own object index for it is l.
func (b *gbuilder) connect(sa, pa *access, k, l int) {
	chi := sa.chis[k]
	if chi < 0 {
		return
	}
	if pa.store == nil {
		b.addThreadLoadEdge(chi, pa.stmt.(*ir.Load), false)
	} else if peerChi := pa.chis[l]; peerChi >= 0 {
		b.addThreadMemEdge(chi, peerChi, false)
	}
}

// connectAblation adds the No-Value-Flow edge store --obj--> peer. The
// peer need not alias obj, and either side may lack a chi for it (the
// access does not alias it per pre-analysis, or is unreachable); a chi is
// materialized so the flow still costs propagation work, and an edge the
// pointer gate would not admit is marked ungated.
func (b *gbuilder) connectAblation(sa, pa *access, obj *ir.Object) {
	chi, ungated := b.storeChiOrNew(sa.store, obj)
	switch peer := pa.stmt.(type) {
	case *ir.Load:
		_, aliases := slices.BinarySearch(pa.objs, uint32(obj.ID))
		b.addThreadLoadEdge(chi, peer, ungated || !aliases)
	case *ir.Store:
		peerChi, _ := b.storeChiOrNew(peer, obj)
		b.addThreadMemEdge(chi, peerChi, ungated)
	}
}

// storeChiOrNew returns the chi of (s, obj), creating it if absent; fresh
// reports whether it was just created. A created chi joins the compacted
// graph as its own representative.
func (b *gbuilder) storeChiOrNew(s *ir.Store, obj *ir.Object) (chi int, fresh bool) {
	g := b.g
	if chi := g.StoreChiNode(s, obj); chi >= 0 {
		return chi, false
	}
	chi = b.newNode(MStoreChi, obj, s, ir.StmtFunc(s), s.Parent())
	if g.extraChis == nil {
		g.extraChis = map[stmtObjKey]int{}
	}
	g.extraChis[stmtObjKey{stmt: s.ID(), obj: obj.ID}] = chi
	g.Rep = append(g.Rep, int32(chi))
	g.Out = append(g.Out, nil)
	g.In = append(g.In, nil)
	return chi, true
}

// instances returns the (thread, ctx) instances executing s, with their
// interleaving facts when the precise analysis is in use, and which of them
// sit in a lock span (nil when none does, or without lock analysis).
func (b *gbuilder) instances(s ir.Stmt) ([]mhp.InstanceFact, []bool) {
	var insts []mhp.InstanceFact
	if b.opt.Interleave != nil {
		insts = b.opt.Interleave.InstanceFacts(s)
	} else if f := ir.StmtFunc(s); f != nil {
		insts = b.funcInsts[f]
	}
	if b.opt.Locks == nil {
		return insts, nil
	}
	var spans []bool
	for i, in := range insts {
		if len(b.opt.Locks.SpansOf(locks.Inst{Thread: in.Thread, Ctx: in.Ctx, Stmt: s})) > 0 {
			if spans == nil {
				spans = make([]bool, len(insts))
			}
			spans[i] = true
		}
	}
	return insts, spans
}

// threadModelInstances lists, per function, the (thread, ctx) instances
// executing it according to the thread model: the instances the PCG
// configuration's lock filter enumerates.
func (b *gbuilder) threadModelInstances() map[*ir.Function][]mhp.InstanceFact {
	out := map[*ir.Function][]mhp.InstanceFact{}
	for _, t := range b.g.Model.Threads {
		for fc := range b.g.Model.Funcs(t) {
			out[fc.Func] = append(out[fc.Func], mhp.InstanceFact{ThreadCtx: mhp.ThreadCtx{Thread: t, Ctx: fc.Ctx}})
		}
	}
	return out
}

// pairMHP decides statement-level MHP using either the precise interleaving
// facts or PCG.
func (b *gbuilder) pairMHP(sa, pa *access) bool {
	if b.opt.Interleave == nil {
		return b.opt.PCG.MHPStmts(sa.stmt, pa.stmt)
	}
	for i := range sa.insts {
		for j := range pa.insts {
			if b.instPair(&sa.insts[i], &pa.insts[j]) {
				return true
			}
		}
	}
	return false
}

// instPair reports whether an instance pair is one the lock filter must
// consider. With interleaving facts that is mhp.Result.MHP: a same-thread
// pair is decided by Multi alone, even where the facts are nil; otherwise
// each thread must be in the other's I. PCG has no instance-level facts, so
// every cross-thread pair counts.
func (b *gbuilder) instPair(i1, i2 *mhp.InstanceFact) bool {
	if i1.Thread == i2.Thread {
		return i1.Thread.Multi
	}
	if b.opt.Interleave == nil {
		return true
	}
	return i1.I != nil && i1.I.Has(uint32(i2.Thread.ID)) &&
		i2.I != nil && i2.I.Has(uint32(i1.Thread.ID))
}

// lockFiltered reports whether every instance pair of (store sa, access
// pa) that instPair admits is a non-interference lock pair for obj, in
// which case the edge is spurious and omitted (Definition 6). It is false
// when no instance pair is admitted.
func (b *gbuilder) lockFiltered(sa, pa *access, obj *ir.Object) bool {
	// A non-interference pair needs both instances in lock spans, so a
	// statement without any spanned instance (nil spans) is never
	// filtered. The loop below relies on this check to index spans.
	if b.opt.Locks == nil || sa.spans == nil || pa.spans == nil {
		return false
	}
	admitted := false
	for i := range sa.insts {
		for j := range pa.insts {
			i1, i2 := &sa.insts[i], &pa.insts[j]
			if !b.instPair(i1, i2) {
				continue
			}
			if !sa.spans[i] || !pa.spans[j] {
				return false
			}
			admitted = true
			st := locks.Inst{Thread: i1.Thread, Ctx: i1.Ctx, Stmt: sa.stmt}
			ac := locks.Inst{Thread: i2.Thread, Ctx: i2.Ctx, Stmt: pa.stmt}
			if !b.opt.Locks.NonInterfering(st, ac, obj) {
				return false
			}
		}
	}
	return admitted
}
