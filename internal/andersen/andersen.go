// Package andersen implements the flow- and context-insensitive
// inclusion-based pointer analysis used as FSAM's pre-analysis (paper
// Section 1.2 and Figure 2).
//
// Before solving, an offline pass (hvn.go) partitions the variables into
// pointer-equivalence classes by hash-based value numbering (Hardekopf &
// Lin, SAS'07), and the solver runs on one node per class: on x264 at
// scale 16, 14,375 classes stand for 212,454 variables. The classes
// already merge every cycle of the initial copy graph.
//
// The solver uses difference (wave-style) propagation with SCC collapsing
// of the copy-edge graph, following the constraint-resolution techniques
// of Pereira and Berlin cited by the paper. Tarjan sweeps run online, each
// once the copy graph has doubled since the last (at least 2048 new
// edges), so total sweep work is O((V+E)·log E) while cycles formed by
// load/store resolution are still collapsed. Sweeps reuse their Tarjan
// state and pop each SCC as a subslice of the Tarjan stack, so they
// allocate nothing per node. Lazy cycle detection (Hardekopf & Lin,
// PLDI'07: a DFS whenever an edge joins two equal sets) was measured and
// declined: it halved the suite's pre-analysis but doubled it on
// thread-dense programs, where equal-set edges are common.
//
// Points-to sets are hash-consed through the shared engine interner
// (identical sets stored once, set algebra memoized) and nodes are
// processed in SCC-topological order by the shared engine worklist. It is
// field-sensitive (one sub-object per struct field, arrays monolithic;
// nested aggregates are collapsed onto their field object, which bounds
// field derivation and subsumes positive-weight-cycle collapsing) and
// builds the call graph on the fly, resolving function pointers and
// indirect fork routines.
package andersen

import (
	"context"
	"sort"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pts"
)

// node identifies a pointer-valued node in the constraint graph: all
// pointer-equivalence classes of top-level variables first (see
// classify), then all abstract objects.
type node = uint32

// gepCon is a field-address constraint dst ⊇ gep(watch, field).
type gepCon struct {
	dst   node
	field int
}

// Result holds the pre-analysis outcome.
type Result struct {
	Prog *ir.Program

	// varPts[v] / objPts[o] are points-to sets of ObjIDs. The sets are
	// canonical interned sets shared across slots — read-only.
	varPts []*pts.Set
	objPts []*pts.Set
	// varIDs/objIDs are the interned handles behind varPts/objPts, kept for
	// sharing statistics and exact byte accounting.
	varIDs []engine.SetID
	objIDs []engine.SetID
	intern *engine.Interner

	// CallTargets resolves every call statement (direct calls included) to
	// its possible callees, and ForkTargets every fork to its routines.
	CallTargets map[*ir.Call][]*ir.Function
	ForkTargets map[*ir.Fork][]*ir.Function

	// Iterations counts worklist pops that carried a non-empty delta; Pops
	// counts every pop; Classes counts the pointer-equivalence classes the
	// variables were solved as (all for diagnostics and benchmarks).
	Iterations int
	Pops       int
	Classes    int
}

// PointsToVar returns the set of ObjIDs v may point to (never nil).
func (r *Result) PointsToVar(v *ir.Var) *pts.Set {
	if v == nil || int(v.ID) >= len(r.varPts) || r.varPts[v.ID] == nil {
		return &pts.Set{}
	}
	return r.varPts[v.ID]
}

// PointsToObj returns the set of ObjIDs stored in object o (never nil).
func (r *Result) PointsToObj(o *ir.Object) *pts.Set {
	if o == nil || int(o.ID) >= len(r.objPts) || r.objPts[o.ID] == nil {
		return &pts.Set{}
	}
	return r.objPts[o.ID]
}

// Obj maps an ObjID from a points-to set back to its object.
func (r *Result) Obj(id uint32) *ir.Object { return r.Prog.Objects[id] }

// MayAlias reports whether *a and *b may reference a common object.
func (r *Result) MayAlias(a, b *ir.Var) bool {
	return r.PointsToVar(a).IntersectsWith(r.PointsToVar(b))
}

// AliasSet returns the common pointees of a and b (the paper's AS(*p,*q)).
func (r *Result) AliasSet(a, b *ir.Var) *pts.Set {
	return r.PointsToVar(a).Intersect(r.PointsToVar(b))
}

// InternStats returns sharing statistics over the stored points-to slots
// (how many distinct sets back how many references).
func (r *Result) InternStats() *engine.RefStats {
	rs := r.intern.NewRefStats()
	for _, id := range r.varIDs {
		rs.Ref(id)
	}
	for _, id := range r.objIDs {
		rs.Ref(id)
	}
	return rs
}

// Bytes reports the memory footprint of the stored points-to sets: each
// canonical interned set counted once plus one 4-byte handle per slot.
func (r *Result) Bytes() uint64 {
	rs := r.InternStats()
	return rs.UniqueBytes + uint64(rs.Refs)*4
}

// solver is the constraint solver state.
type solver struct {
	prog       *ir.Program
	numVars    int
	class      []node // pointer-equivalence class by VarID
	numClasses int

	parent []node // union-find over constraint nodes

	it      *engine.Interner
	wl      *engine.Worklist
	cancel  *engine.Canceller
	ptsOf   []engine.SetID // full points-to set per representative
	delta   []engine.SetID // not-yet-processed additions per representative
	copyOut [][]node       // copy successors per representative

	loads  [][]node   // dst ⊇ *n
	stores [][]node   // *n ⊇ src
	geps   [][]gepCon // dst ⊇ gep(n, f)

	// Indirect calls and forks watching a representative. Few nodes have
	// any, so they are kept out of the dense per-node arrays.
	icalls map[node][]*ir.Call
	iforks map[node][]*ir.Fork

	resolvedCall map[*ir.Call]map[*ir.Function]bool
	resolvedFork map[*ir.Fork]map[*ir.Function]bool

	edgeCount    int
	lastCollapse int // edgeCount at the last sweep, or after seeding
	sweeps       int // online sweeps run by solve
	iterations   int
	hasEdge      map[uint64]bool

	tarjan tarjanState
}

// tarjanState is the scratch state of an SCC walk, kept on the solver so
// repeated sweeps reuse it.
type tarjanState struct {
	index   []int32
	low     []int32
	onStack []bool
	stack   []node
	frames  []tarjanFrame
}

type tarjanFrame struct {
	v    node
	succ int
}

// minSweepEdges is the smallest number of new copy edges that triggers an
// online collapse sweep; past it, a sweep waits until the copy graph has
// doubled since the last one.
const minSweepEdges = 2048

// Analyze runs the pre-analysis over a finalized program.
func Analyze(prog *ir.Program) *Result {
	r, _ := AnalyzeCtx(context.Background(), prog)
	return r
}

// AnalyzeCtx runs the pre-analysis under a context. On cancellation it
// returns (nil, ctx.Err()); the solve loop polls at its worklist pop.
func AnalyzeCtx(ctx context.Context, prog *ir.Program) (*Result, error) {
	s := newSolver(ctx, prog)
	if err := s.seed(); err != nil {
		return nil, err
	}
	if err := s.solve(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

func newSolver(ctx context.Context, prog *ir.Program) *solver {
	return &solver{
		prog:         prog,
		numVars:      len(prog.Vars),
		it:           engine.NewInterner(),
		wl:           engine.NewWorklist(0),
		cancel:       engine.NewCanceller(ctx),
		icalls:       map[node][]*ir.Call{},
		iforks:       map[node][]*ir.Fork{},
		resolvedCall: map[*ir.Call]map[*ir.Function]bool{},
		resolvedFork: map[*ir.Fork]map[*ir.Function]bool{},
		hasEdge:      map[uint64]bool{},
	}
}

// seed numbers the solver nodes by pointer-equivalence class, which merges
// every cycle of the initial copy graph, and builds the constraint graph
// from every statement; the online sweep schedule starts from there.
func (s *solver) seed() error {
	class, n, err := classify(s.prog, s.cancel)
	if err != nil {
		return err
	}
	s.class, s.numClasses = class, n
	s.grow()
	s.initConstraints()
	s.lastCollapse = s.edgeCount
	return nil
}

func (s *solver) size() int { return s.numClasses + len(s.prog.Objects) }

// grow extends node-indexed slices to the current node-space size. Field
// objects are materialized during solving, so each slice is allocated with
// a quarter of headroom and most growth is a reslice.
func (s *solver) grow() {
	n, old := s.size(), len(s.parent)
	if n <= old {
		return
	}
	c := n + n/4
	s.parent = extend(s.parent, n, c)
	for i := old; i < n; i++ {
		s.parent[i] = node(i)
	}
	s.copyOut = extend(s.copyOut, n, c)
	s.loads = extend(s.loads, n, c)
	s.stores = extend(s.stores, n, c)
	s.geps = extend(s.geps, n, c)
	s.ptsOf = extend(s.ptsOf, n, c) // zero is engine.EmptySet
	s.delta = extend(s.delta, n, c)
	s.wl.Grow(n)
}

// extend returns sl resliced to length n, reallocated with capacity c when
// it does not fit. Slots past the old length are zero.
func extend[T any](sl []T, n, c int) []T {
	if n <= cap(sl) {
		return sl[:n]
	}
	out := make([]T, n, c)
	copy(out, sl)
	return out
}

func (s *solver) varNode(v *ir.Var) node    { return s.class[v.ID] }
func (s *solver) objNode(o *ir.Object) node { return node(s.numClasses) + node(o.ID) }

// find returns the representative of n with path halving.
func (s *solver) find(n node) node {
	for s.parent[n] != n {
		s.parent[n] = s.parent[s.parent[n]]
		n = s.parent[n]
	}
	return n
}

// addPts inserts obj into pts(n), scheduling n when it changes.
func (s *solver) addPts(n node, obj uint32) {
	n = s.find(n)
	if nu := s.it.Add(s.ptsOf[n], obj); nu != s.ptsOf[n] {
		s.ptsOf[n] = nu
		s.delta[n] = s.it.Add(s.delta[n], obj)
		s.push(n)
	}
}

// addPtsSet unions set into pts(n).
func (s *solver) addPtsSet(n node, set engine.SetID) {
	n = s.find(n)
	if u, added := s.it.UnionDiff(s.ptsOf[n], set); added != engine.EmptySet {
		s.ptsOf[n] = u
		s.delta[n] = s.it.Union(s.delta[n], added)
		s.push(n)
	}
}

func (s *solver) push(n node) { s.wl.Push(int(n)) }

// addCopy inserts the copy edge src→dst, propagating the current set.
func (s *solver) addCopy(src, dst node) {
	if src == emptyClass {
		return
	}
	src, dst = s.find(src), s.find(dst)
	if src == dst {
		return
	}
	key := uint64(src)<<32 | uint64(dst)
	if s.hasEdge[key] {
		return
	}
	s.hasEdge[key] = true
	s.copyOut[src] = append(s.copyOut[src], dst)
	s.wl.AddEdge(int(src), int(dst))
	s.edgeCount++
	if s.ptsOf[src] != engine.EmptySet {
		s.addPtsSet(dst, s.ptsOf[src])
	}
}

// initConstraints seeds the graph from every statement.
func (s *solver) initConstraints() {
	for _, f := range s.prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				s.addStmt(f, st)
			}
		}
	}
}

// addStmt adds the constraints of st. A constraint whose address, base or
// function pointer is in the empty class can never fire and is dropped.
func (s *solver) addStmt(f *ir.Function, st ir.Stmt) {
	switch st := st.(type) {
	case *ir.AddrOf:
		s.addPts(s.varNode(st.Dst), uint32(st.Obj.ID))
	case *ir.Copy:
		s.addCopy(s.varNode(st.Src), s.varNode(st.Dst))
	case *ir.Phi:
		for _, in := range st.Incoming {
			if in != nil {
				s.addCopy(s.varNode(in), s.varNode(st.Dst))
			}
		}
	case *ir.Load:
		if n := s.varNode(st.Addr); n != emptyClass {
			n = s.find(n)
			s.loads[n] = append(s.loads[n], s.varNode(st.Dst))
			s.reprocess(n)
		}
	case *ir.Store:
		if n, src := s.varNode(st.Addr), s.varNode(st.Src); n != emptyClass && src != emptyClass {
			n = s.find(n)
			s.stores[n] = append(s.stores[n], src)
			s.reprocess(n)
		}
	case *ir.Gep:
		if n := s.varNode(st.Base); n != emptyClass {
			n = s.find(n)
			s.geps[n] = append(s.geps[n], gepCon{dst: s.varNode(st.Dst), field: st.Field})
			s.reprocess(n)
		}
	case *ir.Call:
		if st.Callee != nil {
			s.bindCall(st, st.Callee)
		} else if n := s.varNode(st.CalleeVar); n != emptyClass {
			n = s.find(n)
			s.icalls[n] = append(s.icalls[n], st)
			s.reprocess(n)
		}
	case *ir.Ret:
		if st.Val != nil && f.RetVar != nil {
			s.addCopy(s.varNode(st.Val), s.varNode(f.RetVar))
		}
	case *ir.Fork:
		if st.Dst != nil {
			s.addPts(s.varNode(st.Dst), uint32(st.Handle.ID))
		}
		if st.Routine != nil {
			s.bindFork(st, st.Routine)
		} else if n := s.varNode(st.RoutineVar); n != emptyClass {
			n = s.find(n)
			s.iforks[n] = append(s.iforks[n], st)
			s.reprocess(n)
		}
	}
}

// reprocess requeues a node whose constraint lists changed so its existing
// points-to set is run through the new constraints.
func (s *solver) reprocess(n node) {
	n = s.find(n)
	if s.ptsOf[n] != engine.EmptySet {
		s.delta[n] = s.it.Union(s.delta[n], s.ptsOf[n])
		s.push(n)
	}
}

// bindCall wires up parameter and return copies for call→callee.
func (s *solver) bindCall(call *ir.Call, callee *ir.Function) {
	set := s.resolvedCall[call]
	if set == nil {
		set = map[*ir.Function]bool{}
		s.resolvedCall[call] = set
	}
	if set[callee] {
		return
	}
	set[callee] = true
	n := len(call.Args)
	if len(callee.Params) < n {
		n = len(callee.Params)
	}
	for i := 0; i < n; i++ {
		s.addCopy(s.varNode(call.Args[i]), s.varNode(callee.Params[i]))
	}
	if call.Dst != nil && callee.RetVar != nil {
		s.addCopy(s.varNode(callee.RetVar), s.varNode(call.Dst))
	}
}

// bindFork wires the fork argument to the routine's first parameter.
func (s *solver) bindFork(fork *ir.Fork, routine *ir.Function) {
	set := s.resolvedFork[fork]
	if set == nil {
		set = map[*ir.Function]bool{}
		s.resolvedFork[fork] = set
	}
	if set[routine] {
		return
	}
	set[routine] = true
	if fork.Arg != nil && len(routine.Params) > 0 {
		s.addCopy(s.varNode(fork.Arg), s.varNode(routine.Params[0]))
	}
}

// solve runs the difference-propagation worklist to a fixpoint, popping
// nodes in the engine's SCC-topological order. The worklist pop is the
// cancellation poll point.
func (s *solver) solve() error {
	for {
		if s.cancel.Cancelled() {
			return s.cancel.Err()
		}
		ni, ok := s.wl.Pop()
		if !ok {
			break
		}
		n := node(ni)
		if s.find(n) != n {
			continue // collapsed away
		}
		d := s.delta[n]
		s.delta[n] = engine.EmptySet
		if d == engine.EmptySet {
			continue
		}
		s.iterations++

		// Complex constraints over the delta.
		s.it.Set(d).ForEach(func(objID uint32) {
			obj := s.prog.Objects[objID]
			on := s.objNode(obj)
			for _, dst := range s.loads[n] {
				s.addCopy(on, dst)
			}
			for _, src := range s.stores[n] {
				s.addCopy(src, on)
			}
			for _, g := range s.geps[n] {
				objs := len(s.prog.Objects)
				fo := s.prog.FieldObj(obj, g.field)
				if len(s.prog.Objects) > objs {
					s.grow() // FieldObj created a new node
				}
				s.addPts(g.dst, uint32(fo.ID))
			}
			if obj.Kind == ir.ObjFunc && obj.Func != nil {
				for _, call := range s.icalls[n] {
					s.bindCall(call, obj.Func)
				}
				for _, fork := range s.iforks[n] {
					s.bindFork(fork, obj.Func)
				}
			}
		})

		// Copy propagation of the delta.
		for _, m := range s.copyOut[n] {
			s.addPtsSet(m, d)
		}

		// Online cycle collapsing, once the copy graph has doubled.
		if s.edgeCount-s.lastCollapse > max(minSweepEdges, s.lastCollapse) {
			s.collapse()
			s.lastCollapse = s.edgeCount
			s.sweeps++
		}
	}
	return nil
}

// collapse runs Tarjan's SCC algorithm over the copy graph and merges each
// multi-node SCC into one representative.
func (s *solver) collapse() {
	s.tarjan.sccs(s.size(), s.find, func(v node) []node { return s.copyOut[v] }, func(comp []node) bool {
		if len(comp) > 1 {
			s.merge(comp)
		}
		return true
	})
}

// sccs runs Tarjan's algorithm over the nodes [0, n) as represented by
// find, following succs from each representative, and calls visit with the
// members of each SCC, a subslice of the Tarjan stack valid only during the
// call. An SCC is visited after every SCC it reaches. sccs stops, returning
// false, as soon as visit returns false.
func (t *tarjanState) sccs(n int, find func(node) node, succs func(node) []node, visit func([]node) bool) bool {
	t.index = extend(t.index[:0], n, n)
	t.low = extend(t.low[:0], n, n)
	t.onStack = extend(t.onStack[:0], n, n)
	for i := range t.index {
		t.index[i] = -1
	}
	index, low, onStack := t.index, t.low, t.onStack
	stack, frames := t.stack[:0], t.frames[:0]
	defer func() { t.stack, t.frames = stack[:0], frames[:0] }()
	var counter int32

	for start := 0; start < n; start++ {
		root := find(node(start))
		if index[root] != -1 {
			continue
		}
		frames = append(frames, tarjanFrame{v: root})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			out := succs(v)
			advanced := false
			for fr.succ < len(out) {
				w := find(out[fr.succ])
				fr.succ++
				if w == v {
					continue
				}
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, tarjanFrame{v: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// Finished v: if it roots an SCC, that SCC is the top of the
			// stack down to v.
			if low[v] == index[v] {
				i := len(stack) - 1
				for stack[i] != v {
					onStack[stack[i]] = false
					i--
				}
				onStack[v] = false
				if !visit(stack[i:]) {
					return false
				}
				stack = stack[:i]
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return true
}

// merge collapses the nodes of one SCC, in Tarjan stack order, into its
// last-visited node.
func (s *solver) merge(comp []node) {
	rep := comp[len(comp)-1]
	for i := len(comp) - 2; i >= 0; i-- {
		m := comp[i]
		s.parent[m] = rep
		if s.ptsOf[m] != engine.EmptySet {
			s.addPtsSet(rep, s.ptsOf[m])
			s.ptsOf[m] = engine.EmptySet
		}
		if s.delta[m] != engine.EmptySet {
			s.delta[rep] = s.it.Union(s.delta[rep], s.delta[m])
			s.delta[m] = engine.EmptySet
			s.push(rep)
		}
		s.copyOut[rep] = append(s.copyOut[rep], s.copyOut[m]...)
		s.copyOut[m] = nil
		s.loads[rep] = append(s.loads[rep], s.loads[m]...)
		s.loads[m] = nil
		s.stores[rep] = append(s.stores[rep], s.stores[m]...)
		s.stores[m] = nil
		s.geps[rep] = append(s.geps[rep], s.geps[m]...)
		s.geps[m] = nil
		if calls, ok := s.icalls[m]; ok {
			s.icalls[rep] = append(s.icalls[rep], calls...)
			delete(s.icalls, m)
		}
		if forks, ok := s.iforks[m]; ok {
			s.iforks[rep] = append(s.iforks[rep], forks...)
			delete(s.iforks, m)
		}
	}
	// Requeue the representative so merged constraint lists see its set.
	s.reprocess(rep)
}

// result snapshots the solver state into an immutable Result.
func (s *solver) result() *Result {
	s.grow()
	r := &Result{
		Prog:        s.prog,
		varPts:      make([]*pts.Set, s.numVars),
		objPts:      make([]*pts.Set, len(s.prog.Objects)),
		varIDs:      make([]engine.SetID, s.numVars),
		objIDs:      make([]engine.SetID, len(s.prog.Objects)),
		intern:      s.it,
		CallTargets: map[*ir.Call][]*ir.Function{},
		ForkTargets: map[*ir.Fork][]*ir.Function{},
		Iterations:  s.iterations,
		Pops:        int(s.wl.Pops()),
		Classes:     s.numClasses,
	}
	for i := 0; i < s.numVars; i++ {
		rep := s.find(s.class[i])
		if id := s.ptsOf[rep]; id != engine.EmptySet {
			r.varIDs[i] = id
			r.varPts[i] = s.it.Set(id)
		}
	}
	for i := range s.prog.Objects {
		rep := s.find(node(s.numClasses + i))
		if id := s.ptsOf[rep]; id != engine.EmptySet {
			r.objIDs[i] = id
			r.objPts[i] = s.it.Set(id)
		}
	}
	for call, fs := range s.resolvedCall {
		list := make([]*ir.Function, 0, len(fs))
		for f := range fs {
			list = append(list, f)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
		r.CallTargets[call] = list
	}
	for fork, fs := range s.resolvedFork {
		list := make([]*ir.Function, 0, len(fs))
		for f := range fs {
			list = append(list, f)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
		r.ForkTargets[fork] = list
	}
	return r
}
