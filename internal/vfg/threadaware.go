package vfg

import (
	"encoding/binary"
	"slices"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
)

// access is one Load or Store as [THREAD-VF] construction sees it, with
// everything the class keys and decisions need read once per statement.
type access struct {
	stmt  ir.Stmt
	store *ir.Store // nil for a load
	// objs are the objects the address may point to, ascending (the
	// No-Value-Flow ablation only).
	objs []uint32
	// insts are the (thread, ctx) instances executing the statement, with
	// their interleaving facts (nil facts under PCG). spans[i] reports
	// whether insts[i] sits in a lock span; spans is nil when none does.
	insts []mhp.InstanceFact
	spans []bool
}

// accessAddr returns the address operand of a load or store, or nil.
func accessAddr(s ir.Stmt) *ir.Var {
	switch s := s.(type) {
	case *ir.Store:
		return s.Addr
	case *ir.Load:
		return s.Addr
	}
	return nil
}

// buildThreadAware adds the [THREAD-VF] def-use edges (Section 3.3.2): for
// every MHP store-load or store-store pair with a common pointed-to object
// o ∈ AS(*p,*q), an edge from the store's chi of o to the peer access. The
// lock analysis filters non-interference pairs (Definition 6); the
// No-Value-Flow ablation drops the aliasing premise and connects every MHP
// pair over all objects the store may define.
//
// The relation is decided per access class, not per statement pair. The
// accesses of each indexed object are partitioned into classes whose
// members agree on everything pairMHP and the lock filter read (see
// classifier.key), so one decision on representatives settles every
// (store, access) pair of a (store class, access class) pair. An admitted
// class pair is wired through per-class hub nodes where that stores fewer
// edges than the pairs themselves (see planHubs). ThreadEdges,
// FilteredByLock and FilteredByVF count the logical pairs from the class
// sizes; StoredThreadEdges counts the edges the graph holds. Objects are
// visited in ascending ID order and classes in first-member order, so the
// graph is the same on every run.
func (b *gbuilder) buildThreadAware() error {
	g := b.g
	prog := g.Prog
	if b.opt.Interleave == nil {
		b.funcInsts = b.threadModelInstances()
	}
	if b.opt.NoValueFlow {
		b.adjacency(0)
		return b.buildNoValueFlow()
	}

	// Note the objects some store may define: only those can carry an edge.
	stored := make([]bool, len(prog.Objects))
	for _, s := range prog.Stmts {
		if s, ok := s.(*ir.Store); ok {
			g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) { stored[id] = true })
		}
	}

	// Thread-escape pruning: a non-Shared object has no accessor pair that
	// may run in parallel, so statement-level MHP — which refines
	// thread-level MHP — would reject every candidate pair on it. Leaving
	// it out of the index is result-identical; it only saves the MHP and
	// lock-filter work.
	//
	// slot[id] numbers the indexed objects from 1; it is 0 for the others.
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

	// accs are the accesses touching an indexed object, in statement
	// order; byObj(r) lists the indices into accs of those that may touch
	// the object with slot r, ascending, in one flat array. off[r+1]
	// counts them first and is then summed to the start of the row.
	var accs []access
	off := make([]int32, rows+2)
	for _, s := range prog.Stmts {
		addr := accessAddr(s)
		if addr == nil {
			continue
		}
		touches := false
		g.Pre.PointsToVar(addr).ForEach(func(id uint32) {
			if r := slot[id]; r > 0 {
				off[r+1]++
				touches = true
			}
		})
		if !touches {
			continue
		}
		a := access{stmt: s}
		a.store, _ = s.(*ir.Store)
		a.insts, a.spans = b.instances(s)
		accs = append(accs, a)
	}
	for r := 2; r < len(off); r++ {
		off[r] += off[r-1]
	}
	flat := make([]int32, off[len(off)-1])
	for i := range accs {
		g.Pre.PointsToVar(accessAddr(accs[i].stmt)).ForEach(func(id uint32) {
			if r := slot[id]; r > 0 {
				flat[off[r]] = int32(i)
				off[r]++
			}
		})
	}
	// Filling moved each start to its row's end: row r is now
	// off[r-1]:off[r].
	byObj := func(row int32) []int32 { return flat[off[row-1]:off[row]] }

	c := newClassifier(b, accs)
	plans := make([]objPlan, 0, rows)
	hubs := 0
	for id, row := range slot {
		if row == 0 {
			continue
		}
		if b.cancel.Cancelled() {
			return b.cancel.Err()
		}
		p := c.classify(prog.Objects[id], byObj(row))
		hubs += p.planHubs()
		plans = append(plans, p)
	}
	if b.cancel.Cancelled() {
		return b.cancel.Err()
	}
	b.adjacency(hubs)
	b.wire(c, plans, hubs)
	return nil
}

// class is one access class of an indexed object: the accesses of the
// object that share a class key.
type class struct {
	// members are indices into accs, ascending; stores counts the stores
	// among them.
	members []int32
	stores  int32
	// repStore (a store member, or -1) and repAcc (the first member) are
	// the representatives MHP is decided on; insts are the members' shared
	// instances, with their lock-span positions for the object, which the
	// lock filter reads.
	repStore, repAcc int32
	insts            []spannedInst
	// liveStores counts the store members with a chi of the object, and
	// liveTargets the members an edge can reach: loads and those stores.
	liveStores, liveTargets int32
	// srcHub collects the chis of the live stores for the admitted pairs
	// in which the class is the store side; dstHub feeds the live targets
	// for those in which it is the access side. Each is noHub, plannedHub
	// once planHubs chose it, or the hub's logical ID once wire created it.
	srcHub, dstHub int
}

// Hub states of a class side before wire creates the node.
const (
	noHub      = -1
	plannedHub = -2
)

// classPair is an admitted (store class, access class) pair of one object.
type classPair struct{ s, a int32 }

// objPlan is the [THREAD-VF] wiring of one indexed object: its classes, in
// first-member order, and its admitted class pairs.
type objPlan struct {
	obj      *ir.Object
	classes  []class
	admitted []classPair
}

// Class-pair decisions.
const (
	pairVF   uint8 = iota + 1 // no member pair may happen in parallel
	pairLock                  // every member pair is lock-filtered
	pairEdge                  // admitted
)

// classifier partitions accesses into classes and decides class pairs.
type classifier struct {
	b    *gbuilder
	accs []access

	// tupleIDs interns instance tuples by their byte encodings, and sets
	// interleaving facts by content, so two statements with equal I sets
	// share a tuple. tupleInst[t] is tuple t's instance as the lock filter
	// reads it.
	tupleIDs  map[string]int32
	tupleInst []spannedInst
	sets      *engine.Interner
	funcIDs   map[*ir.Function]int32
	// clsOf[st] is the class of the access with StmtID st in the object
	// being classified.
	clsOf []int32

	// Scratch.
	buf     []byte
	tuples  []int32
	pos     []locks.SpanPos
	ord     map[string]int32
	verdict []uint8
}

func newClassifier(b *gbuilder, accs []access) *classifier {
	return &classifier{
		b:        b,
		accs:     accs,
		tupleIDs: map[string]int32{},
		sets:     engine.NewInterner(),
		funcIDs:  map[*ir.Function]int32{},
		clsOf:    make([]int32, len(b.g.Prog.Stmts)),
		ord:      map[string]int32{},
	}
}

// key returns the class key of accs[i] for obj, valid until the next call,
// and leaves its instance tuples in c.tuples. Two accesses with equal keys
// agree on everything pairMHP and the lock filter read: their instances'
// threads and interleaving facts (by content; each statement has its own
// I set), the spans of each instance with its HD and TL bits for obj, and
// under PCG, whose MHP is per function, the statement's function. The key
// is a sorted set of instance tuples, as both decisions only ask whether
// some or every instance pair qualifies.
func (c *classifier) key(i int32, obj *ir.Object) []byte {
	a := &c.accs[i]
	c.tuples = c.tuples[:0]
	for k := range a.insts {
		in := &a.insts[k]
		t := binary.LittleEndian.AppendUint32(c.buf[:0], uint32(in.Thread.ID))
		t = binary.LittleEndian.AppendUint32(t, uint32(c.sets.Intern(in.I)))
		spanned := a.spans != nil && a.spans[k]
		if spanned {
			c.pos = c.b.opt.Locks.HeadTail(locks.Inst{Thread: in.Thread, Ctx: in.Ctx, Stmt: a.stmt}, obj, c.pos[:0])
			for _, p := range c.pos {
				t = binary.LittleEndian.AppendUint32(t, uint32(p.Span.ID))
				bits := byte(0)
				if p.Head {
					bits |= 1
				}
				if p.Tail {
					bits |= 2
				}
				t = append(t, bits)
			}
		}
		c.buf = t
		id, ok := c.tupleIDs[string(t)]
		if !ok {
			id = int32(len(c.tupleInst))
			c.tupleIDs[string(t)] = id
			si := spannedInst{fact: *in}
			if spanned {
				si.pos = slices.Clone(c.pos)
			}
			c.tupleInst = append(c.tupleInst, si)
		}
		c.tuples = append(c.tuples, id)
	}
	slices.Sort(c.tuples)
	c.tuples = slices.Compact(c.tuples)
	k := c.buf[:0]
	if c.b.opt.Interleave == nil {
		k = binary.LittleEndian.AppendUint32(k, uint32(c.funcID(ir.StmtFunc(a.stmt))))
	}
	for _, t := range c.tuples {
		k = binary.LittleEndian.AppendUint32(k, uint32(t))
	}
	c.buf = k
	return k
}

func (c *classifier) funcID(f *ir.Function) int32 {
	id, ok := c.funcIDs[f]
	if !ok {
		id = int32(len(c.funcIDs))
		c.funcIDs[f] = id
	}
	return id
}

// decide returns the decision for the store class s against the access
// class a: MHP on their representatives, the lock filter on their
// instances.
func (c *classifier) decide(s, a *class) uint8 {
	switch {
	case !c.b.pairMHP(&c.accs[s.repStore], &c.accs[a.repAcc]):
		return pairVF
	case c.b.opt.Locks != nil && c.b.lockFilteredInsts(s.insts, a.insts):
		return pairLock
	}
	return pairEdge
}

// chi returns the logical ID of accs[i]'s chi of obj: -1 for a load or a
// store without one. [THREAD-VF] construction works on logical IDs;
// linkMem and linkLoad map them to the physical nodes.
func (c *classifier) chi(i int32, obj *ir.Object) int {
	if s := c.accs[i].store; s != nil {
		return c.b.g.StoreChiNode(s, obj)
	}
	return -1
}

// classify partitions members, the accesses of obj, into classes, decides
// every (store class, access class) pair and adds its logical pairs to the
// counters. A class pair stands for |stores of S| × |members of A| access
// pairs, less the self pairs when S = A; an admitted one adds its edges to
// ThreadEdges, less the self pairs and the pairs a constructed
// thread-oblivious edge already connects.
func (c *classifier) classify(obj *ir.Object, members []int32) objPlan {
	g := c.b.g
	p := objPlan{obj: obj}
	clear(c.ord)
	var insts [][]spannedInst
	counts := make([]int32, 0, 8)
	for _, i := range members {
		k := c.key(i, obj)
		o, ok := c.ord[string(k)]
		if !ok {
			o = int32(len(counts))
			c.ord[string(k)] = o
			in := make([]spannedInst, len(c.tuples))
			for j, t := range c.tuples {
				in[j] = c.tupleInst[t]
			}
			insts = append(insts, in)
			counts = append(counts, 0)
		}
		c.clsOf[c.accs[i].stmt.ID()] = o
		counts[o]++
	}
	p.classes = make([]class, len(counts))
	grouped := make([]int32, len(members))
	at := int32(0)
	for o, n := range counts {
		p.classes[o] = class{members: grouped[at : at : at+n], repStore: -1, repAcc: -1, insts: insts[o], srcHub: noHub, dstHub: noHub}
		at += n
	}
	for _, i := range members {
		cl := &p.classes[c.clsOf[c.accs[i].stmt.ID()]]
		cl.members = append(cl.members, i)
		if cl.repAcc < 0 {
			cl.repAcc = i
		}
		if c.accs[i].store == nil {
			cl.liveTargets++
			continue
		}
		cl.stores++
		if cl.repStore < 0 {
			cl.repStore = i
		}
		if c.chi(i, obj) >= 0 {
			cl.liveStores++
			cl.liveTargets++
		}
	}

	n := len(p.classes)
	c.verdict = slices.Grow(c.verdict[:0], n*n)[:n*n]
	clear(c.verdict)
	for si := range p.classes {
		s := &p.classes[si]
		if s.stores == 0 || c.b.cancel.Cancelled() {
			continue
		}
		for ai := range p.classes {
			a := &p.classes[ai]
			pairs := int(s.stores) * len(a.members)
			edges := int(s.liveStores) * int(a.liveTargets)
			if si == ai {
				pairs -= int(s.stores)
				edges -= int(s.liveStores)
			}
			d := c.decide(s, a)
			c.verdict[si*n+ai] = d
			switch d {
			case pairVF:
				g.FilteredByVF += pairs
			case pairLock:
				g.FilteredByLock += pairs
			default:
				g.ThreadEdges += edges
				p.admitted = append(p.admitted, classPair{s: int32(si), a: int32(ai)})
			}
		}
	}
	if len(p.admitted) == 0 {
		return p
	}

	// Subtract the admitted pairs a constructed thread-oblivious edge
	// already connects: the builder never repeats such an edge.
	for _, i := range members {
		st := c.accs[i].stmt.ID()
		var in []int32
		if t := c.chi(i, obj); t >= 0 {
			in = c.b.oblMem.row(t)
		} else if c.accs[i].store == nil {
			in = c.b.oblLoad.row(int(st))
		}
		for _, x := range in {
			// x is a store chi's logical ID only if it represents itself.
			p := g.Rep[x]
			if p < 0 || c.b.logOf[p] != x {
				continue
			}
			src := g.Nodes[p]
			if src.Kind != MStoreChi || src.Obj != obj {
				continue
			}
			if c.verdict[int(c.clsOf[src.Stmt.ID()])*n+int(c.clsOf[st])] == pairEdge {
				g.ThreadEdges--
			}
		}
	}
	return p
}

// planHubs chooses the hubs of p's classes, in one pass, and returns how
// many. Without hubs an admitted pair (S, A) stores |S| × |A| edges (live
// members). A side gets a hub where its members plus its partners (the
// live members on the other side of its admitted pairs) are fewer than
// their product. A side is judged against the other side's members, not
// against the hub the other side may get, so where both sides get one a
// hub can save less than judged; a plan that re-checks each side against
// the other's hubs stores about 1% fewer edges on dense programs.
func (p *objPlan) planHubs() int {
	pays := func(members int32, partners int) bool { return int(members)+partners < int(members)*partners }
	src := make([]int, len(p.classes))
	dst := make([]int, len(p.classes))
	for _, e := range p.admitted {
		src[e.s] += int(p.classes[e.a].liveTargets)
		dst[e.a] += int(p.classes[e.s].liveStores)
	}
	hubs := 0
	for ci := range p.classes {
		cl := &p.classes[ci]
		if pays(cl.liveStores, src[ci]) {
			cl.srcHub = plannedHub
			hubs++
		}
		if pays(cl.liveTargets, dst[ci]) {
			cl.dstHub = plannedHub
			hubs++
		}
	}
	return hubs
}

// wire creates the planned hubs, hubs of them in all, in the room
// adjacency left for them, and stores the edges of every admitted class
// pair (S, A): each live store chi of S into S's hub, S's hub or chis into
// A's hub or live targets, and A's hub into its live targets. Only a
// direct chi-to-target edge skips a self pair or a constructed
// thread-oblivious edge. A path through a hub may repeat either, which
// leaves every points-to set unchanged: a hub holds the union of chis of
// its one object, and the target already holds (or is) that value.
func (b *gbuilder) wire(c *classifier, plans []objPlan, hubs int) {
	g := b.g
	g.ThreadHubs = hubs
	slab := make([]MemNode, hubs)
	newHub := func(obj *ir.Object, class int, access bool) int {
		n := &slab[0]
		slab = slab[1:]
		n.Kind, n.Obj, n.Class, n.Access = MHub, obj, int32(class), access
		return b.addNode(n)
	}
	for pi := range plans {
		p := &plans[pi]
		for ci := range p.classes {
			cl := &p.classes[ci]
			if cl.srcHub == plannedHub {
				cl.srcHub = newHub(p.obj, ci, false)
				for _, i := range cl.members {
					if chi := c.chi(i, p.obj); chi >= 0 {
						b.linkMem(chi, cl.srcHub, false)
					}
				}
			}
			if cl.dstHub == plannedHub {
				cl.dstHub = newHub(p.obj, ci, true)
				b.linkTargets(c, cl.dstHub, cl, p.obj, false)
			}
		}
		for _, e := range p.admitted {
			s, a := &p.classes[e.s], &p.classes[e.a]
			if s.srcHub != noHub {
				b.linkTargetsOrHub(c, s.srcHub, a, p.obj, false)
				continue
			}
			for _, i := range s.members {
				if chi := c.chi(i, p.obj); chi >= 0 {
					b.linkTargetsOrHub(c, chi, a, p.obj, true)
				}
			}
		}
	}
}

// linkTargetsOrHub connects from to access class a: to its hub, or to its
// live targets (see linkTargets).
func (b *gbuilder) linkTargetsOrHub(c *classifier, from int, a *class, obj *ir.Object, direct bool) {
	if a.dstHub != noHub {
		b.linkMem(from, a.dstHub, false)
		return
	}
	b.linkTargets(c, from, a, obj, direct)
}

// linkTargets connects from to every live target of class a. A direct
// edge, from a store chi, goes through addThreadMemEdge and
// addThreadLoadEdge, which skip self pairs and constructed
// thread-oblivious edges.
func (b *gbuilder) linkTargets(c *classifier, from int, a *class, obj *ir.Object, direct bool) {
	for _, i := range a.members {
		acc := &c.accs[i]
		if acc.store == nil {
			l := acc.stmt.(*ir.Load)
			if direct {
				b.addThreadLoadEdge(from, l, false)
			} else {
				b.linkLoad(from, l, false)
			}
			continue
		}
		chi := c.chi(i, obj)
		switch {
		case chi < 0:
		case direct:
			b.addThreadMemEdge(from, chi, false)
		default:
			b.linkMem(from, chi, false)
		}
	}
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
	// Every ablation edge is stored directly, so the logical count is the
	// stored one.
	defer func() { g.ThreadEdges = g.StoredThreadEdges }()
	// insts memoizes an access's instances with their lock-span positions
	// for an object: the loop below asks for them once per MHP (store,
	// peer, object) triple. Only accesses in some lock span are asked.
	memo := map[stmtObjKey][]spannedInst{}
	insts := func(a *access, obj *ir.Object) []spannedInst {
		k := stmtObjKey{stmt: a.stmt.ID(), obj: obj.ID}
		si, ok := memo[k]
		if !ok {
			si = b.spannedInsts(a, obj)
			memo[k] = si
		}
		return si
	}
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
			// A non-interference pair needs both instances in lock spans,
			// so a statement without any spanned instance (nil spans) is
			// never filtered.
			locked := b.opt.Locks != nil && sa.spans != nil && pa.spans != nil
			for _, id := range sa.objs {
				obj := g.Prog.Objects[id]
				if locked && b.lockFilteredInsts(insts(sa, obj), insts(pa, obj)) {
					g.FilteredByLock++
					continue
				}
				b.connectAblation(sa, pa, obj)
			}
		}
	}
	return nil
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
	chi = b.addNode(&MemNode{Kind: MStoreChi, Obj: obj, Stmt: s, Func: ir.StmtFunc(s), Blk: s.Parent()})
	if g.extraChis == nil {
		g.extraChis = map[ir.StmtID][]int32{}
	}
	g.extraChis[s.ID()] = append(g.extraChis[s.ID()], int32(chi))
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

// spannedInst is a statement instance as the lock filter reads it: its
// interleaving fact and, when it sits in lock spans, its HeadTail
// positions there for the object at hand (nil otherwise).
type spannedInst struct {
	fact mhp.InstanceFact
	pos  []locks.SpanPos
}

// spannedInsts lists a's instances with their positions for obj.
func (b *gbuilder) spannedInsts(a *access, obj *ir.Object) []spannedInst {
	out := make([]spannedInst, len(a.insts))
	for k, in := range a.insts {
		out[k].fact = in
		if a.spans != nil && a.spans[k] {
			out[k].pos = b.opt.Locks.HeadTail(locks.Inst{Thread: in.Thread, Ctx: in.Ctx, Stmt: a.stmt}, obj, nil)
		}
	}
	return out
}

// lockFilteredInsts reports whether every pair of a store instance of st
// and an access instance of ac that instPair admits is a non-interference
// lock pair (locks.NonInterferingAt), in which case the edge is spurious
// and omitted (Definition 6). It is false when no instance pair is
// admitted.
func (b *gbuilder) lockFilteredInsts(st, ac []spannedInst) bool {
	admitted := false
	for i := range st {
		for j := range ac {
			i1, i2 := &st[i], &ac[j]
			if !b.instPair(&i1.fact, &i2.fact) {
				continue
			}
			if i1.pos == nil || i2.pos == nil || !locks.NonInterferingAt(i1.pos, i2.pos) {
				return false
			}
			admitted = true
		}
	}
	return admitted
}
