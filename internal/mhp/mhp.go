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

// nodeCtx is a context-qualified ICFG node.
type nodeCtx struct {
	node *icfg.Node
	ctx  callgraph.Ctx
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

	// facts[t] maps (node, ctx) to I(t,ctx,node): thread IDs that may run
	// in parallel when t executes the node under ctx.
	facts map[*threads.Thread]map[nodeCtx]*pts.Set

	// execsOf lists the (thread, ctx) instances executing each function.
	execsOf map[*ir.Function][]ThreadCtx

	// Iterations counts data-flow node visits (diagnostics).
	Iterations int
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
		facts:   map[*threads.Thread]map[nodeCtx]*pts.Set{},
		execsOf: map[*ir.Function][]ThreadCtx{},
	}
	for _, t := range model.Threads {
		for fc := range model.Funcs(t) {
			r.execsOf[fc.Func] = append(r.execsOf[fc.Func], ThreadCtx{Thread: t, Ctx: fc.Ctx})
		}
	}
	cancel := engine.NewLimitedCanceller(ctx)
	for _, t := range model.Threads {
		if err := r.analyzeThread(t, cancel); err != nil {
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

// analyzeThread runs the forward data-flow for one thread over its ICFG.
func (r *Result) analyzeThread(t *threads.Thread, cancel *engine.Canceller) error {
	m := r.Model
	facts := map[nodeCtx]*pts.Set{}
	r.facts[t] = facts

	var work []nodeCtx
	inWork := map[nodeCtx]bool{}
	push := func(nc nodeCtx) {
		if !inWork[nc] {
			inWork[nc] = true
			work = append(work, nc)
		}
	}
	// join (union) incoming fact into nc; a first visit always schedules
	// the node even when the incoming set is empty.
	merge := func(nc nodeCtx, s *pts.Set) {
		f := facts[nc]
		fresh := f == nil
		if fresh {
			f = &pts.Set{}
			facts[nc] = f
		}
		if f.UnionWith(s) || fresh {
			push(nc)
		}
	}

	seed := r.entrySeed(t)
	for _, routine := range t.Routines {
		entry := m.G.EntryOf[routine]
		if entry == nil {
			continue
		}
		merge(nodeCtx{node: entry, ctx: t.StartCtx}, seed)
	}

	for len(work) > 0 {
		if cancel.Cancelled() {
			return cancel.Err()
		}
		nc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[nc] = false
		r.Iterations++
		n, ctx := nc.node, nc.ctx

		// Node transfer: gen at fork sites, kill at join sites.
		out := facts[nc]
		genKill := false
		if n.Kind == icfg.NStmt {
			switch s := n.Stmt.(type) {
			case *ir.Fork:
				for _, kid := range m.ThreadsAtFork[s] {
					if kid.Spawner == t && kid.SpawnCtx == ctx {
						if !genKill {
							out = out.Copy()
							genKill = true
						}
						out.Add(uint32(kid.ID))
						out.UnionWith(m.Descendants(kid))
					}
				}
			case *ir.Join:
				kills := m.KillsAt(s, t)
				if !kills.IsEmpty() {
					filtered := &pts.Set{}
					out.ForEach(func(id uint32) {
						if !kills.Has(id) {
							filtered.Add(id)
						}
					})
					out = filtered
					genKill = true
				}
			}
		}

		// Edge propagation within the thread.
		for _, e := range n.Out {
			switch e.Kind {
			case icfg.EIntra:
				next := out
				ek := m.EdgeKills(n, e.To, t)
				if !ek.IsEmpty() {
					filtered := &pts.Set{}
					next.ForEach(func(id uint32) {
						if !ek.Has(id) {
							filtered.Add(id)
						}
					})
					next = filtered
				}
				merge(nodeCtx{node: e.To, ctx: ctx}, next)

			case icfg.ECall:
				callee := e.To.Func
				nctx := ctx
				if !m.CG.SameSCC(n.Func, callee) {
					nctx = m.Ctxs.Push(ctx, e.Site.ID())
				}
				merge(nodeCtx{node: e.To, ctx: nctx}, out)

			case icfg.ERet:
				caller := e.To.Func
				if m.CG.SameSCC(n.Func, caller) {
					// Context-insensitive within the SCC.
					merge(nodeCtx{node: e.To, ctx: ctx}, out)
				} else if m.Ctxs.Peek(ctx) == e.Site.ID() {
					merge(nodeCtx{node: e.To, ctx: m.Ctxs.Pop(ctx)}, out)
				}
				// Unmatched returns are not taken ([I-RET] matches calls).

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

// I returns I(t, ctx, s): the set of thread IDs that may run concurrently
// when t executes s under ctx (nil if s is unreachable in that instance).
func (r *Result) I(t *threads.Thread, ctx callgraph.Ctx, s ir.Stmt) *pts.Set {
	n := r.Model.G.StmtNode[s]
	if n == nil {
		return nil
	}
	return r.facts[t][nodeCtx{node: n, ctx: ctx}]
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
			out[i].I = r.facts[in.Thread][nodeCtx{node: n, ctx: in.Ctx}]
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

// Bytes reports the memory held by interleaving facts.
func (r *Result) Bytes() uint64 {
	var total uint64
	for _, m := range r.facts {
		for _, s := range m {
			total += 24 + s.Bytes() // map entry overhead + set
		}
	}
	return total
}

var _ StmtMHP = (*Result)(nil)
