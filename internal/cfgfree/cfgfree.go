// Package cfgfree implements a flow-sensitive pointer analysis that never
// propagates along control-flow order — the "flow sensitivity without
// control flow graph" design (arXiv:2508.01974) adapted to this
// repository's IR and interned-set worklist substrate.
//
// The solver is structurally Andersen's inclusion analysis: one constraint
// node per top-level SSA variable and per abstract object, difference
// propagation over an on-the-fly copy graph. What changes is the handling
// of memory. Andersen routes every load through the object node —
// dst ⊇ pts(o) for each o the address may reference — which merges all
// stores into o regardless of whether they can ever reach the load.
// Here a load instead receives direct copy edges from individual stores:
//
//	store *p = src;  load dst = *q  adds  src → dst  iff
//	  (1) pts(p) ∩ pts(q) ≠ ∅ under this solver's own evolving sets, and
//	  (2) the store can reach the load in some execution (reach below).
//
// Because top-level variables are in SSA form, suppressing unreachable
// store→load flows is exactly the precision flow-sensitive analyses get
// from indexing memory by program point — but no per-point states are kept
// and no propagation follows CFG edges, so the cost profile stays
// Andersen-like. Object nodes are retained only as write summaries (every
// aliasing store still flows into the object node) so whole-program
// queries like "what may this global ever hold" remain answerable.
//
// The reach predicate is a one-shot summary computed before solving:
//
//	reach(s, l) = PseqReach(s, l) ∨ (concurrent(s) ∧ concurrent(l))
//
// PseqReach is reachability over the sequentialized ICFG Pseq (all edge
// kinds, including fork-call/fork-return, as in the paper's memory-SSA
// construction), computed as a batched bitset data-flow pass over the SCC
// condensation. concurrent(x) over-approximates "x may execute while
// another thread is live": x's function is in the call-graph closure of
// some fork routine, or x is Pseq-reachable from a fork-return node
// (main-thread code after a spawn). Both disjuncts over-approximate the
// sparse engine's admitted flows — Pseq covers its sequential def-use
// chains, and MHP(s, l) implies concurrent(s) ∧ concurrent(l) — so the
// precision ordering sparse ⊆ cfgfree ⊆ Andersen holds object- and
// variable-wise. On fork-free programs
// concurrent() is uniformly false and the analysis degenerates to purely
// sequential reachability gating, its most precise regime.
package cfgfree

import (
	"context"
	"math/bits"

	"repro/internal/callgraph"
	"repro/internal/engine"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/pts"
)

// Result holds the CFG-free flow-sensitive analysis outcome.
type Result struct {
	Prog *ir.Program

	// varPts[v] / objPts[o] are canonical interned sets of ObjIDs —
	// read-only, shared across slots.
	varPts []*pts.Set
	objPts []*pts.Set
	varIDs []engine.SetID
	objIDs []engine.SetID
	intern *engine.Interner

	// Stores and Loads count the memory statements the reach summary
	// covers; Pairs counts the store→load copy edges the alias ∧ reach
	// gate admitted (the cfgfree analogue of def-use edge count).
	Stores, Loads int
	Pairs         int
	// PrunedPairs counts store→load admissions rejected because only the
	// mutual-concurrency disjunct held and the escape oracle proved the
	// object non-shared (0 without an oracle).
	PrunedPairs int
	// SummaryBytes is the transient footprint of the reach summary during
	// solving (freed with the solver; reported for diagnostics).
	SummaryBytes uint64
	// Iterations counts worklist pops carrying a non-empty delta; Pops
	// counts every pop.
	Iterations int
	Pops       uint64
}

// PointsToVar returns the set of ObjIDs v may point to (never nil). One
// set per SSA variable is the engine's flow-sensitive answer.
func (r *Result) PointsToVar(v *ir.Var) *pts.Set {
	if v == nil || int(v.ID) >= len(r.varPts) || r.varPts[v.ID] == nil {
		return &pts.Set{}
	}
	return r.varPts[v.ID]
}

// PointsToObj returns the write summary of object o: everything any
// admitted store may have put in it (never nil).
func (r *Result) PointsToObj(o *ir.Object) *pts.Set {
	if o == nil || int(o.ID) >= len(r.objPts) || r.objPts[o.ID] == nil {
		return &pts.Set{}
	}
	return r.objPts[o.ID]
}

// ObjAtExit answers the "contents at exit of f" query with the object's
// write summary — the engine keeps no per-point memory states, so this is
// its soundest flow-insensitive answer (⊇ the sparse engine's at-exit set,
// ⊆ Andersen's object set). The f parameter exists for interface symmetry
// with the memory-SSA engines.
func (r *Result) ObjAtExit(f *ir.Function, obj *ir.Object) *pts.Set {
	return r.PointsToObj(obj)
}

// Obj maps an ObjID from a points-to set back to its object.
func (r *Result) Obj(id uint32) *ir.Object { return r.Prog.Objects[id] }

// InternStats returns sharing statistics over the stored points-to slots.
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

// Analyze runs the CFG-free analysis without a context.
func Analyze(cg *callgraph.Graph, g *icfg.Graph) *Result {
	r, _ := AnalyzeCtx(context.Background(), cg, g)
	return r
}

// SharedFn is the thread-escape oracle consulted by the reach gate: it
// reports whether the object may be accessed by two thread instances that
// run in parallel. When supplied, the mutual-concurrency disjunct of the
// store→load admission is dropped for non-shared objects. Unlike the
// fsam/tmod prunes this is a (sound) precision refinement, not a pure
// work skip: Pseq — where a fork behaves as a call — covers every
// happens-before-ordered cross-thread flow with a sequential path, so the
// concurrency disjunct is only ever needed for genuinely shared objects;
// for the rest it admits spurious pairs the oracle now rejects.
type SharedFn func(objID uint32) bool

// AnalyzeCtx runs the CFG-free analysis under a context that may carry an
// engine.Budget. The reach summary and the fixpoint loop each poll their
// own limited canceller, so deadline, memory and step budgets degrade the
// run instead of being ignored.
func AnalyzeCtx(ctx context.Context, cg *callgraph.Graph, g *icfg.Graph) (*Result, error) {
	return AnalyzeCtxPruned(ctx, cg, g, nil)
}

// AnalyzeCtxPruned is AnalyzeCtx with a thread-escape oracle gating the
// mutual-concurrency reach admission (nil disables pruning).
func AnalyzeCtxPruned(ctx context.Context, cg *callgraph.Graph, g *icfg.Graph, shared SharedFn) (*Result, error) {
	sum, err := buildSummary(ctx, g)
	if err != nil {
		return nil, err
	}
	s := &solver{
		prog:    cg.Prog,
		cg:      cg,
		sum:     sum,
		shared:  shared,
		numVars: len(cg.Prog.Vars),
		it:      engine.NewInterner(),
		wl:      engine.NewWorklist(0),
		cancel:  engine.NewLimitedCanceller(ctx),
		hasEdge: map[uint64]bool{},
	}
	s.grow()
	s.initConstraints()
	if err := s.solve(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// ---------------------------------------------------------------------------
// Reach summary

// summary is the precomputed store→load admissibility relation.
type summary struct {
	stores []*ir.Store
	loads  []*ir.Load
	// storeIdx/loadIdx invert the slices above.
	storeIdx map[*ir.Store]int
	loadIdx  map[*ir.Load]int

	// seq is a bitset matrix: seq[si*loadWords + li/64] bit li%64 set when
	// store si Pseq-reaches load li.
	seq       []uint64
	loadWords int

	// storeConc/loadConc flag statements that may execute while another
	// thread is live.
	storeConc []bool
	loadConc  []bool
}

// seqReaches reports whether store index si Pseq-reaches load index li
// (the sequential disjunct of the admission gate; the concurrent disjunct
// — storeConc ∧ loadConc — lives in solver.admit where the escape oracle
// can veto it).
func (m *summary) seqReaches(si, li int) bool {
	return m.seq[si*m.loadWords+li/64]&(1<<(uint(li)%64)) != 0
}

func (m *summary) bytes() uint64 {
	return uint64(len(m.seq))*8 + uint64(len(m.storeConc)+len(m.loadConc))
}

// batchBits is the number of stores whose reachability is computed per DP
// pass: each condensation component carries batchBits/64 words, keeping
// the pass memory proportional to the ICFG, not stores × ICFG.
const batchBits = 1024

// buildSummary computes Pseq reachability (batched bitset DP over the SCC
// condensation of the ICFG, all edge kinds) and the concurrency flags.
func buildSummary(ctx context.Context, g *icfg.Graph) (*summary, error) {
	cancel := engine.NewLimitedCanceller(ctx)
	m := &summary{
		storeIdx: map[*ir.Store]int{},
		loadIdx:  map[*ir.Load]int{},
	}
	for _, f := range g.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Store:
					m.storeIdx[s] = len(m.stores)
					m.stores = append(m.stores, s)
				case *ir.Load:
					m.loadIdx[s] = len(m.loads)
					m.loads = append(m.loads, s)
				}
			}
		}
	}
	m.loadWords = (len(m.loads) + 63) / 64
	if m.loadWords == 0 {
		m.loadWords = 1
	}
	m.seq = make([]uint64, len(m.stores)*m.loadWords)
	m.storeConc = make([]bool, len(m.stores))
	m.loadConc = make([]bool, len(m.loads))

	comp, numComps := condense(g)

	// Condensed adjacency, deduped with a last-writer mark. Cross edges go
	// from higher to lower component IDs (Tarjan completion order is
	// reverse-topological), so a single descending sweep propagates fully.
	csucc := make([][]int32, numComps)
	mark := make([]int32, numComps)
	for i := range mark {
		mark[i] = -1
	}
	for _, n := range g.Nodes {
		cu := comp[n.ID]
		for _, e := range n.Out {
			if cv := comp[e.To.ID]; cv != cu && mark[cv] != cu {
				mark[cv] = cu
				csucc[cu] = append(csucc[cu], cv)
			}
		}
	}

	for base := 0; base < len(m.stores); base += batchBits {
		end := base + batchBits
		if end > len(m.stores) {
			end = len(m.stores)
		}
		wb := (end - base + 63) / 64
		rows := make([]uint64, numComps*wb)
		for i := base; i < end; i++ {
			if n := g.StmtNode[m.stores[i]]; n != nil {
				b := i - base
				rows[int(comp[n.ID])*wb+b/64] |= 1 << (uint(b) % 64)
			}
		}
		for c := numComps - 1; c >= 0; c-- {
			if cancel.Cancelled() {
				return nil, cancel.Err()
			}
			src := rows[c*wb : (c+1)*wb]
			zero := true
			for _, w := range src {
				if w != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue
			}
			for _, d := range csucc[c] {
				dst := rows[int(d)*wb : (int(d)+1)*wb]
				for w := range src {
					dst[w] |= src[w]
				}
			}
		}
		for li, l := range m.loads {
			n := g.StmtNode[l]
			if n == nil {
				continue
			}
			c := int(comp[n.ID])
			row := rows[c*wb : c*wb+wb]
			for w, bits := range row {
				for ; bits != 0; bits &= bits - 1 {
					b := w*64 + trailingZeros(bits)
					si := base + b
					m.seq[si*m.loadWords+li/64] |= 1 << (uint(li) % 64)
				}
			}
		}
	}

	markConcurrent(g, m, comp, numComps, csucc)
	return m, nil
}

// markConcurrent sets storeConc/loadConc: a statement is concurrent when
// its function may run in a spawned thread (call-graph closure of fork
// routines) or when it is Pseq-reachable from a fork-return node (the
// spawning thread's continuation).
func markConcurrent(g *icfg.Graph, m *summary, comp []int32, numComps int, csucc [][]int32) {
	// Call-graph closure from every fork routine.
	spawned := map[*ir.Function]bool{}
	var queue []*ir.Function
	addFunc := func(f *ir.Function) {
		if f != nil && !spawned[f] {
			spawned[f] = true
			queue = append(queue, f)
		}
	}
	forkRets := map[int]bool{} // component IDs seeded by fork-return nodes
	for _, f := range g.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				fk, ok := s.(*ir.Fork)
				if !ok {
					continue
				}
				for _, t := range g.CG.CalleesOf[fk] {
					addFunc(t)
				}
				if rn := g.RetNode[fk]; rn != nil {
					forkRets[int(comp[rn.ID])] = true
				}
			}
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s.(type) {
				case *ir.Call, *ir.Fork:
					for _, t := range g.CG.CalleesOf[s] {
						addFunc(t)
					}
				}
			}
		}
	}

	// Component-level reachability from fork-return components: one
	// descending sweep over the condensation, as in the DP above.
	after := make([]bool, numComps)
	for c := range after {
		after[c] = forkRets[c]
	}
	for c := numComps - 1; c >= 0; c-- {
		if !after[c] {
			continue
		}
		for _, d := range csucc[c] {
			after[d] = true
		}
	}

	conc := func(s ir.Stmt, f *ir.Function) bool {
		if spawned[f] {
			return true
		}
		n := g.StmtNode[s]
		return n != nil && after[comp[n.ID]]
	}
	for si, s := range m.stores {
		m.storeConc[si] = conc(s, ir.StmtFunc(s))
	}
	for li, l := range m.loads {
		m.loadConc[li] = conc(l, ir.StmtFunc(l))
	}
}

// condense computes the SCC condensation of the ICFG over every edge kind
// (iterative Tarjan). Component IDs follow completion order, which is
// reverse-topological: every cross edge goes from a higher ID to a lower.
func condense(g *icfg.Graph) (comp []int32, numComps int) {
	n := len(g.Nodes)
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var counter, comps int32
	type frame struct {
		v    int32
		succ int
	}
	var frames []frame

	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(start)})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true

		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			out := g.Nodes[v].Out
			advanced := false
			for fr.succ < len(out) {
				u := int32(out[fr.succ].To.ID)
				fr.succ++
				if index[u] == -1 {
					index[u] = counter
					low[u] = counter
					counter++
					stack = append(stack, u)
					onStack[u] = true
					frames = append(frames, frame{v: u})
					advanced = true
					break
				} else if onStack[u] && index[u] < low[v] {
					low[v] = index[u]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					comp[u] = comps
					if u == v {
						break
					}
				}
				comps++
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
	return comp, int(comps)
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// ---------------------------------------------------------------------------
// Solver

type node int32

// gepCon is a field-address constraint dst ⊇ gep(watch, field).
type gepCon struct {
	dst   node
	field int
}

type solver struct {
	prog    *ir.Program
	cg      *callgraph.Graph
	sum     *summary
	shared  SharedFn
	numVars int

	it     *engine.Interner
	wl     *engine.Worklist
	cancel *engine.Canceller

	ptsOf   []engine.SetID
	delta   []engine.SetID
	copyOut [][]node
	hasEdge map[uint64]bool

	// loadsAt/storesAt watch address variables (indexed by var ID) and
	// hold indices into sum.loads/sum.stores; geps watch base variables.
	loadsAt  [][]int32
	storesAt [][]int32
	geps     [][]gepCon

	// loadsOfObj/storesOfObj record, per object, the loads and stores
	// whose address set came to include it — the incremental form of the
	// alias-intersection gate. Each (stmt, obj) pair lands exactly once
	// because deltas carry each object once per variable.
	loadsOfObj  [][]int32
	storesOfObj [][]int32

	pairs       int
	prunedPairs int
	iterations  int
}

func (s *solver) size() int { return s.numVars + len(s.prog.Objects) }

// grow extends node-indexed slices (field objects materialize during
// solving, extending the object space).
func (s *solver) grow() {
	n := s.size()
	for len(s.copyOut) < n {
		s.copyOut = append(s.copyOut, nil)
	}
	for len(s.ptsOf) < n {
		s.ptsOf = append(s.ptsOf, engine.EmptySet)
	}
	for len(s.delta) < n {
		s.delta = append(s.delta, engine.EmptySet)
	}
	for len(s.loadsAt) < s.numVars {
		s.loadsAt = append(s.loadsAt, nil)
	}
	for len(s.storesAt) < s.numVars {
		s.storesAt = append(s.storesAt, nil)
	}
	for len(s.geps) < s.numVars {
		s.geps = append(s.geps, nil)
	}
	for len(s.loadsOfObj) < len(s.prog.Objects) {
		s.loadsOfObj = append(s.loadsOfObj, nil)
	}
	for len(s.storesOfObj) < len(s.prog.Objects) {
		s.storesOfObj = append(s.storesOfObj, nil)
	}
	s.wl.Grow(n)
}

func (s *solver) varNode(v *ir.Var) node    { return node(v.ID) }
func (s *solver) objNode(o *ir.Object) node { return node(s.numVars) + node(o.ID) }

func (s *solver) addPts(n node, obj uint32) {
	if nu := s.it.Add(s.ptsOf[n], obj); nu != s.ptsOf[n] {
		s.ptsOf[n] = nu
		s.delta[n] = s.it.Add(s.delta[n], obj)
		s.wl.Push(int(n))
	}
}

func (s *solver) addPtsSet(n node, set engine.SetID) {
	if u, added := s.it.UnionDiff(s.ptsOf[n], set); added != engine.EmptySet {
		s.ptsOf[n] = u
		s.delta[n] = s.it.Union(s.delta[n], added)
		s.wl.Push(int(n))
	}
}

// addCopy inserts the copy edge src→dst, propagating the current set.
func (s *solver) addCopy(src, dst node) {
	if src == dst {
		return
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if s.hasEdge[key] {
		return
	}
	s.hasEdge[key] = true
	s.copyOut[src] = append(s.copyOut[src], dst)
	s.wl.AddEdge(int(src), int(dst))
	if s.ptsOf[src] != engine.EmptySet {
		s.addPtsSet(dst, s.ptsOf[src])
	}
}

// initConstraints seeds the graph from every statement. Calls and forks
// bind through the pre-analysis' final resolution (cg.CalleesOf) — the
// pre-analysis over-approximates this solver, so its target sets are
// sound here and remove the need for on-the-fly binding.
func (s *solver) initConstraints() {
	for _, f := range s.prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				s.addStmt(f, st)
			}
		}
	}
}

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
		s.loadsAt[st.Addr.ID] = append(s.loadsAt[st.Addr.ID], int32(s.sum.loadIdx[st]))
	case *ir.Store:
		s.storesAt[st.Addr.ID] = append(s.storesAt[st.Addr.ID], int32(s.sum.storeIdx[st]))
	case *ir.Gep:
		s.geps[st.Base.ID] = append(s.geps[st.Base.ID], gepCon{dst: s.varNode(st.Dst), field: st.Field})
	case *ir.Call:
		for _, t := range s.cg.CalleesOf[st] {
			s.bindCall(st, t)
		}
	case *ir.Ret:
		if st.Val != nil && f.RetVar != nil {
			s.addCopy(s.varNode(st.Val), s.varNode(f.RetVar))
		}
	case *ir.Fork:
		if st.Dst != nil {
			s.addPts(s.varNode(st.Dst), uint32(st.Handle.ID))
		}
		for _, t := range s.cg.CalleesOf[st] {
			if st.Arg != nil && len(t.Params) > 0 {
				s.addCopy(s.varNode(st.Arg), s.varNode(t.Params[0]))
			}
		}
	}
}

// bindCall wires up parameter and return copies for call→callee.
func (s *solver) bindCall(call *ir.Call, callee *ir.Function) {
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

// solve runs the difference-propagation worklist to a fixpoint. The
// worklist pop is the cancellation/budget poll point.
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
		d := s.delta[n]
		s.delta[n] = engine.EmptySet
		if d == engine.EmptySet {
			continue
		}
		s.iterations++

		if int(n) < s.numVars {
			s.it.Set(d).ForEach(func(objID uint32) { s.processVarDelta(n, objID) })
		}

		for _, m := range s.copyOut[n] {
			s.addPtsSet(m, d)
		}
	}
	return nil
}

// processVarDelta handles the complex constraints watching variable n for
// one newly discovered pointee: field materialization, the store write
// summary, and the reach-gated store→load pairing.
func (s *solver) processVarDelta(n node, objID uint32) {
	obj := s.prog.Objects[objID]
	for _, g := range s.geps[n] {
		fo := s.prog.FieldObj(obj, g.field)
		s.grow() // field objects may extend the node space
		s.addPts(g.dst, uint32(fo.ID))
	}
	for _, li := range s.loadsAt[n] {
		s.loadsOfObj[objID] = append(s.loadsOfObj[objID], li)
		for _, si := range s.storesOfObj[objID] {
			s.admit(int(si), int(li), objID)
		}
	}
	for _, si := range s.storesAt[n] {
		s.storesOfObj[objID] = append(s.storesOfObj[objID], si)
		s.addCopy(s.varNode(s.sum.stores[si].Src), s.objNode(obj))
		for _, li := range s.loadsOfObj[objID] {
			s.admit(int(si), int(li), objID)
		}
	}
}

// admit adds the store→load copy edge when the reach summary allows it:
// a Pseq path, or mutual concurrency on an object the escape oracle (when
// present) considers shared.
func (s *solver) admit(si, li int, objID uint32) {
	if !s.sum.seqReaches(si, li) {
		if !(s.sum.storeConc[si] && s.sum.loadConc[li]) {
			return
		}
		if s.shared != nil && !s.shared(objID) {
			s.prunedPairs++
			return
		}
	}
	src, dst := s.varNode(s.sum.stores[si].Src), s.varNode(s.sum.loads[li].Dst)
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if !s.hasEdge[key] {
		s.pairs++
	}
	s.addCopy(src, dst)
}

// result snapshots the solver state.
func (s *solver) result() *Result {
	r := &Result{
		Prog:         s.prog,
		varPts:       make([]*pts.Set, s.numVars),
		objPts:       make([]*pts.Set, len(s.prog.Objects)),
		varIDs:       make([]engine.SetID, s.numVars),
		objIDs:       make([]engine.SetID, len(s.prog.Objects)),
		intern:       s.it,
		Stores:       len(s.sum.stores),
		Loads:        len(s.sum.loads),
		Pairs:        s.pairs,
		PrunedPairs:  s.prunedPairs,
		SummaryBytes: s.sum.bytes(),
		Iterations:   s.iterations,
		Pops:         s.wl.Pops(),
	}
	for i := 0; i < s.numVars; i++ {
		r.varIDs[i] = s.ptsOf[i]
		r.varPts[i] = s.it.Set(s.ptsOf[i])
	}
	for i := range s.prog.Objects {
		id := s.ptsOf[s.numVars+i]
		r.objIDs[i] = id
		r.objPts[i] = s.it.Set(id)
	}
	return r
}
