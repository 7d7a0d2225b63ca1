// Package mhp implements the paper's interleaving analysis (Section 3.3.1,
// Figure 7): a forward, flow- and context-sensitive data-flow over each
// thread's ICFG computing I(t,c,s) — the set of threads that may be alive
// when thread t executes statement s under calling context c — and the
// resulting may-happen-in-parallel relation on context-sensitive statements.
//
// Rule mapping:
//   - [I-DESCENDANT]: at a fork site the spawnee and its transitive
//     descendants join I after the fork, and every ancestor is seeded into
//     the spawnee's entry fact.
//   - [I-SIBLING]: sibling threads not ordered by happens-before seed each
//     other's entry facts.
//   - [I-JOIN]: join sites remove the joined thread and everything it fully
//     joins (KillClosure); symmetric join-all loops kill at their loop-exit
//     edges (EdgeKills).
//   - [I-CALL]/[I-RET]/[I-INTRA]: facts propagate along the thread's ICFG
//     with calls and returns matched context-sensitively (context pushes
//     are suppressed inside call-graph SCCs).
package mhp

import (
	"context"

	"repro/internal/callgraph"
	"repro/internal/engine"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/pts"
	"repro/internal/threads"
)

// StmtMHP is the interface consumed by the value-flow phase: a decision
// procedure for "may these two statements happen in parallel?". Both the
// precise interleaving analysis (Result) and the coarse PCG baseline
// implement it.
type StmtMHP interface {
	// MHPStmts reports whether some runtime instances of s1 and s2 may
	// execute concurrently.
	MHPStmts(s1, s2 ir.Stmt) bool
	// Bytes reports the memory footprint of the analysis facts.
	Bytes() uint64
}

// ThreadCtx is one execution instance of a function: thread t running it
// under context ctx.
type ThreadCtx struct {
	Thread *threads.Thread
	Ctx    callgraph.Ctx
}

// Result holds the computed interleaving facts.
type Result struct {
	Model *threads.Model

	// sets interns every fact; slots[t.ID] holds thread t's facts.
	sets  *engine.Interner
	slots []threadSlots

	// execsOf lists the (thread, ctx) instances executing each function,
	// in thread order and, within a thread, in the thread walk's order.
	execsOf map[*ir.Function][]ThreadCtx

	// Iterations counts data-flow node visits (diagnostics).
	Iterations int
}

// threadSlots is one thread's fact array: a block of slots per (function,
// ctx) instance the data-flow reached, one slot per ICFG node of the
// function, so the fact of node n under instance b sits at
// fact[b.base+n.ID-b.lo]. A slot holds the interned I(t,ctx,n), or
// unreached.
type threadSlots struct {
	block map[threads.FuncCtx]slotBlock
	fact  []engine.SetID
}

type slotBlock struct{ base, lo int32 }

// unreached marks a slot the data-flow never reached (a nil fact).
const unreached = ^engine.SetID(0)

// slot returns the slot of node n under ctx, or -1 when the data-flow never
// reached that function instance.
func (ts *threadSlots) slot(n *icfg.Node, ctx callgraph.Ctx) int32 {
	b, ok := ts.block[threads.FuncCtx{Func: n.Func, Ctx: ctx}]
	if !ok {
		return -1
	}
	return b.base + int32(n.ID) - b.lo
}

// Analyze runs the interleaving analysis for every abstract thread.
func Analyze(model *threads.Model) *Result {
	r, _ := AnalyzeCtx(context.Background(), model)
	return r
}

// AnalyzeCtx runs the interleaving analysis under a context. On
// cancellation it returns (nil, ctx.Err()); the per-thread data-flow loop
// polls at its worklist pop.
func AnalyzeCtx(ctx context.Context, model *threads.Model) (*Result, error) {
	r := &Result{
		Model:   model,
		sets:    engine.NewInterner(),
		slots:   make([]threadSlots, len(model.Threads)),
		execsOf: map[*ir.Function][]ThreadCtx{},
	}
	for _, t := range model.Threads {
		for _, fc := range model.FuncOrder(t) {
			r.execsOf[fc.Func] = append(r.execsOf[fc.Func], ThreadCtx{Thread: t, Ctx: fc.Ctx})
		}
	}
	cancel := engine.NewLimitedCanceller(ctx)
	a := &analysis{
		Result: r,
		desc:   make([]engine.SetID, len(model.Threads)),
		diffs:  map[[2]engine.SetID]engine.SetID{},
	}
	for _, t := range model.Threads {
		a.desc[t.ID] = r.sets.Intern(model.Descendants(t))
	}
	for _, t := range model.Threads {
		if err := a.thread(t, cancel); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// entrySeed computes the initial fact at a thread's start: its ancestors
// ([I-DESCENDANT], second conclusion, over the transitive spawn relation)
// and its unordered siblings ([I-SIBLING]).
func (r *Result) entrySeed(t *threads.Thread) *pts.Set {
	seed := &pts.Set{}
	for a := t.Spawner; a != nil; a = a.Spawner {
		seed.Add(uint32(a.ID))
	}
	for _, s := range r.Model.Threads {
		if s == t || seed.Has(uint32(s.ID)) {
			continue
		}
		if r.Model.Siblings(s, t) &&
			!r.Model.HappensBefore(s, t) && !r.Model.HappensBefore(t, s) {
			seed.Add(uint32(s.ID))
		}
	}
	return seed
}

// analysis is the state of one AnalyzeCtx run beyond the Result: the
// interned Descendants sets and the memoized set differences behind the
// join and loop-exit kills.
type analysis struct {
	*Result
	desc  []engine.SetID // Descendants(t), by thread ID
	diffs map[[2]engine.SetID]engine.SetID
}

// minus returns the interned x \ y.
func (a *analysis) minus(x, y engine.SetID) engine.SetID {
	if x == engine.EmptySet || y == engine.EmptySet {
		return x
	}
	key := [2]engine.SetID{x, y}
	if d, ok := a.diffs[key]; ok {
		return d
	}
	d := a.sets.Intern(a.sets.Set(x).Difference(a.sets.Set(y)))
	a.diffs[key] = d
	return d
}

// thread runs the forward data-flow for one thread over its ICFG.
func (a *analysis) thread(t *threads.Thread, cancel *engine.Canceller) error {
	m := a.Model
	ts := &a.slots[t.ID]
	ts.block = map[threads.FuncCtx]slotBlock{}

	// Per-thread analysis state, indexed by slot alongside ts.fact: the
	// instance each slot belongs to and the worklist membership flags.
	type instance struct {
		slotBlock
		ctx callgraph.Ctx
	}
	var (
		insts  []instance
		instOf []int32
		inWork []bool
		work   []int32
	)
	slotOf := func(n *icfg.Node, ctx callgraph.Ctx) int32 {
		fc := threads.FuncCtx{Func: n.Func, Ctx: ctx}
		b, ok := ts.block[fc]
		if !ok {
			lo, hi := m.G.NodeRange(n.Func)
			b = slotBlock{base: int32(len(ts.fact)), lo: int32(lo)}
			ts.block[fc] = b
			k := int32(len(insts))
			insts = append(insts, instance{b, ctx})
			for i := lo; i < hi; i++ {
				ts.fact = append(ts.fact, unreached)
				instOf = append(instOf, k)
				inWork = append(inWork, false)
			}
		}
		return b.base + int32(n.ID) - b.lo
	}
	// join (union) an incoming fact into a slot; a first visit always
	// schedules the node even when the incoming set is empty.
	merge := func(i int32, s engine.SetID) {
		cur := ts.fact[i]
		next := s
		if cur != unreached {
			next = a.sets.Union(cur, s)
			if next == cur {
				return
			}
		}
		ts.fact[i] = next
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}

	// Join kills at join sites and symmetric join-all loop exits, interned
	// once per thread.
	joinKills := map[*ir.Join]engine.SetID{}
	edgeKills := map[[2]int]engine.SetID{}
	joinsAll := false
	for _, e := range m.Joins {
		joinsAll = joinsAll || (e.Joiner == t && e.JoinAll)
	}

	seed := a.sets.Intern(a.entrySeed(t))
	for _, routine := range t.Routines {
		entry := m.G.EntryOf[routine]
		if entry == nil {
			continue
		}
		merge(slotOf(entry, t.StartCtx), seed)
	}

	for len(work) > 0 {
		if cancel.Cancelled() {
			return cancel.Err()
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		a.Iterations++
		in := insts[instOf[i]]
		n, ctx := m.G.Nodes[in.lo+i-in.base], in.ctx

		// Node transfer: gen at fork sites, kill at join sites.
		out := ts.fact[i]
		if n.Kind == icfg.NStmt {
			switch s := n.Stmt.(type) {
			case *ir.Fork:
				for _, kid := range m.ThreadsAtFork[s] {
					if kid.Spawner == t && kid.SpawnCtx == ctx {
						out = a.sets.Union(a.sets.Add(out, uint32(kid.ID)), a.desc[kid.ID])
					}
				}
			case *ir.Join:
				kills, ok := joinKills[s]
				if !ok {
					kills = a.sets.Intern(m.KillsAt(s, t))
					joinKills[s] = kills
				}
				out = a.minus(out, kills)
			}
		}

		// Edge propagation within the thread.
		for _, e := range n.Out {
			switch e.Kind {
			case icfg.EIntra:
				next := out
				if joinsAll {
					key := [2]int{n.ID, e.To.ID}
					ek, ok := edgeKills[key]
					if !ok {
						ek = a.sets.Intern(m.EdgeKills(n, e.To, t))
						edgeKills[key] = ek
					}
					next = a.minus(out, ek)
				}
				merge(in.base+int32(e.To.ID)-in.lo, next) // same instance

			case icfg.ECall:
				nctx := ctx
				if !m.CG.SameSCC(n.Func, e.To.Func) {
					nctx = m.Ctxs.Push(ctx, e.Site.ID())
				}
				merge(slotOf(e.To, nctx), out)

			case icfg.ERet:
				caller := e.To.Func
				if m.CG.SameSCC(n.Func, caller) {
					// Context-insensitive within the SCC.
					merge(slotOf(e.To, ctx), out)
				} else {
					if m.Ctxs.Peek(ctx) == e.Site.ID() {
						merge(slotOf(e.To, m.Ctxs.Pop(ctx)), out)
					}
					// A call made at the depth bound pushed nothing, so its
					// return goes back to the same context.
					if m.Ctxs.Depth(ctx) == m.Ctxs.MaxDepth {
						merge(slotOf(e.To, ctx), out)
					}
				}
				// Other unmatched returns are not taken ([I-RET] matches
				// calls).

			case icfg.EForkCall, icfg.EForkRet:
				// The spawnee runs in its own thread: not part of this
				// thread's ICFG.
			}
		}

		// A resolved call node has no intra successor; its fall-through is
		// modeled by the matched return edge above. A fork node falls
		// through via its EIntra edge to the return node.
	}
	return nil
}

// fact returns I(t, ctx, n), nil when the data-flow never reached it.
func (r *Result) fact(t *threads.Thread, ctx callgraph.Ctx, n *icfg.Node) *pts.Set {
	ts := &r.slots[t.ID]
	i := ts.slot(n, ctx)
	if i < 0 || ts.fact[i] == unreached {
		return nil
	}
	return r.sets.Set(ts.fact[i])
}

// I returns I(t, ctx, s): the set of thread IDs that may run concurrently
// when t executes s under ctx (nil if s is unreachable in that instance).
func (r *Result) I(t *threads.Thread, ctx callgraph.Ctx, s ir.Stmt) *pts.Set {
	n := r.Model.G.StmtNode[s]
	if n == nil {
		return nil
	}
	return r.fact(t, ctx, n)
}

// Instances returns the (thread, ctx) executions of the function containing
// s. Instances whose data-flow never reached s simply carry nil facts and
// are filtered out by MHP.
func (r *Result) Instances(s ir.Stmt) []ThreadCtx {
	f := ir.StmtFunc(s)
	if f == nil {
		return nil
	}
	return r.execsOf[f]
}

// InstanceFact is one instance of a statement with its interleaving fact
// I(t,ctx,s); I is nil where the data-flow never reached the statement.
type InstanceFact struct {
	ThreadCtx
	I *pts.Set
}

// InstanceFacts returns the instances of s, in Instances order, each with
// its I(t,ctx,s) fact, so a client deciding MHP for many pairs of s can
// look the facts up once.
func (r *Result) InstanceFacts(s ir.Stmt) []InstanceFact {
	insts := r.Instances(s)
	if len(insts) == 0 {
		return nil
	}
	n := r.Model.G.StmtNode[s]
	out := make([]InstanceFact, len(insts))
	for i, in := range insts {
		out[i].ThreadCtx = in
		if n != nil {
			out[i].I = r.fact(in.Thread, in.Ctx, n)
		}
	}
	return out
}

// MHP reports whether the two context-sensitive statement instances may
// happen in parallel (the paper's (t1,c1,s1) ∥ (t2,c2,s2)).
func (r *Result) MHP(t1 *threads.Thread, c1 callgraph.Ctx, s1 ir.Stmt,
	t2 *threads.Thread, c2 callgraph.Ctx, s2 ir.Stmt) bool {
	if t1 == t2 {
		return t1.Multi
	}
	i1 := r.I(t1, c1, s1)
	if i1 == nil || !i1.Has(uint32(t2.ID)) {
		return false
	}
	i2 := r.I(t2, c2, s2)
	return i2 != nil && i2.Has(uint32(t1.ID))
}

// MHPStmts reports whether any instances of s1 and s2 may happen in
// parallel (implements StmtMHP).
func (r *Result) MHPStmts(s1, s2 ir.Stmt) bool {
	for _, i1 := range r.Instances(s1) {
		for _, i2 := range r.Instances(s2) {
			if r.MHP(i1.Thread, i1.Ctx, s1, i2.Thread, i2.Ctx, s2) {
				return true
			}
		}
	}
	return false
}

// MHPInstances returns the concrete instance pairs of s1 and s2 that may
// happen in parallel, for clients (e.g. race reporting) that need them.
func (r *Result) MHPInstances(s1, s2 ir.Stmt) [][2]ThreadCtx {
	var out [][2]ThreadCtx
	for _, i1 := range r.Instances(s1) {
		for _, i2 := range r.Instances(s2) {
			if r.MHP(i1.Thread, i1.Ctx, s1, i2.Thread, i2.Ctx, s2) {
				out = append(out, [2]ThreadCtx{i1, i2})
			}
		}
	}
	return out
}

// Bytes reports the memory held by interleaving facts: the interned sets,
// one SetID per slot and one index entry per function instance.
func (r *Result) Bytes() uint64 {
	total := r.sets.Bytes()
	for _, ts := range r.slots {
		total += 4*uint64(len(ts.fact)) + 32*uint64(len(ts.block))
	}
	return total
}

var _ StmtMHP = (*Result)(nil)
