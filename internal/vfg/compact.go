package vfg

import (
	"slices"

	"repro/internal/ir"
)

// pair is one constructed thread-oblivious edge: from a MemNode to a
// MemNode (to is its ID) or to a load (to is the load's StmtID).
type pair struct{ from, to int32 }

// csr lists the sources of each target: those of target t are
// src[off[t]:off[t+1]].
type csr struct {
	off, src []int32
}

// groupByTarget groups edges over targets [0, n) by target, keeping each
// source once per target in first-occurrence order. stamp is scratch
// indexed by source; it must be all zero and is left dirty.
func groupByTarget(n int, edges []pair, stamp []int32) csr {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.to]++
	}
	for t := 1; t < n; t++ {
		off[t] += off[t-1]
	}
	// Filling backwards leaves off[t] at the start of row t and keeps the
	// rows in construction order.
	src := make([]int32, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		off[e.to]--
		src[off[e.to]] = e.from
	}
	off[n] = int32(len(edges))
	w := int32(0)
	for t := 0; t < n; t++ {
		lo, hi := off[t], off[t+1]
		off[t] = w
		for _, s := range src[lo:hi] {
			if stamp[s] != int32(t+1) {
				stamp[s] = int32(t + 1)
				src[w] = s
				w++
			}
		}
	}
	off[n] = w
	return csr{off: off, src: src[:w:w]}
}

// row returns the sources of target t (none past the grouped range).
func (c *csr) row(t int) []int32 {
	if t+1 >= len(c.off) {
		return nil
	}
	return c.src[c.off[t]:c.off[t+1]]
}

// has reports whether s is a source of target t.
func (c *csr) has(t, s int) bool {
	for _, x := range c.row(t) {
		if int(x) == s {
			return true
		}
	}
	return false
}

// compact finishes the thread-oblivious graph. It dedups the constructed
// edges (their count is ObliviousEdges), resolves every logical node to its
// representative, stores the representatives as Nodes (see materialize)
// and groups the edges between them, from which adjacency builds Out, In
// and LoadIn. With collapse false every node represents itself and the
// adjacency is exactly the constructed one.
//
// Compaction runs before [THREAD-VF] and never collapses a store chi.
// Thread-aware edges only ever connect store chis, hubs and loads, so they
// are added straight into the compact graph and none is rewritten.
func (b *gbuilder) compact(collapse bool) {
	g := b.g
	n := len(b.logs)
	stamp := make([]int32, n)
	b.oblMem = groupByTarget(n, b.memEdges, stamp)
	clear(stamp)
	b.oblLoad = groupByTarget(len(g.Prog.Stmts), b.loadEdges, stamp)
	b.memEdges, b.loadEdges = nil, nil
	g.ObliviousEdges = len(b.oblMem.src) + len(b.oblLoad.src)

	root := make([]int32, n)
	if collapse {
		b.representatives(root)
	} else {
		for i := range root {
			root[i] = int32(i)
		}
	}
	b.materialize(root)
	b.logs = nil
	if !collapse {
		b.repMem, b.repLoad = b.oblMem, b.oblLoad
		return
	}
	// Each constructed edge between two distinct representatives, once.
	var mem, load []pair
	for t := 0; t < n; t++ {
		rt := g.Rep[t]
		for _, s := range b.oblMem.row(t) {
			if rs := g.Rep[s]; rs >= 0 && rt >= 0 && rs != rt {
				mem = append(mem, pair{from: rs, to: rt})
			}
		}
	}
	for l := range g.Prog.Stmts {
		for _, s := range b.oblLoad.row(l) {
			if rs := g.Rep[s]; rs >= 0 {
				load = append(load, pair{from: rs, to: int32(l)})
			}
		}
	}
	clear(stamp)
	b.repMem = groupByTarget(len(g.Nodes), mem, stamp)
	clear(stamp)
	b.repLoad = groupByTarget(len(g.Prog.Stmts), load, stamp)
}

// materialize stores the logical nodes that represent themselves in root
// (root[v] == v) as Nodes, numbered in logical-ID order, and sets Rep to
// root renumbered to those physical IDs. Numbering in logical order keeps
// each store's chis consecutive, as StoreChis reads them.
func (b *gbuilder) materialize(root []int32) {
	g := b.g
	prog := g.Prog
	reps := 0
	for v, r := range root {
		if int(r) == v {
			reps++
		}
	}
	arena := make([]MemNode, reps)
	g.Nodes = make([]*MemNode, reps)
	b.logOf = make([]int32, reps)
	g.Rep = make([]int32, len(root))
	id := int32(0)
	for v, r := range root {
		if int(r) != v {
			continue
		}
		l := &b.logs[v]
		f := prog.Funcs[l.fn]
		nd := &arena[id]
		nd.ID, nd.Kind, nd.Obj, nd.Func = int(id), l.kind, prog.Objects[l.obj], f
		if l.stmt != ir.NoStmt {
			nd.Stmt = prog.Stmts[l.stmt]
		}
		if l.blk >= 0 {
			nd.Blk = f.Blocks[l.blk]
		}
		g.Nodes[id] = nd
		b.logOf[id] = int32(v)
		g.Rep[v] = id
		id++
	}
	for v, r := range root {
		if int(r) != v {
			g.Rep[v] = -1
			if r >= 0 {
				g.Rep[v] = g.Rep[r]
			}
		}
	}
}

// representatives resolves every logical node into root: the node it
// always equals, itself, or -1. A store chi represents itself: the solver
// gates and kills at it. Every other node only unions its inputs, so its
// points-to set is the union of those of the store chis reaching it through
// such nodes. The copy nodes are resolved one strongly connected component
// at a time (Tarjan, iterative, over the in-edges), inputs first. The
// members of a component all hold the union of its outside inputs: with no
// non-empty input they are always empty (-1), with one input representative
// they all take it, and otherwise the component's root represents them all.
func (b *gbuilder) representatives(rep []int32) {
	n := len(b.logs)
	in := &b.oblMem
	// unresolved marks a copy node whose component is not finished yet.
	const unresolved = -2
	for v := range b.logs {
		if b.logs[v].kind == MStoreChi {
			rep[v] = int32(v)
		} else {
			rep[v] = unresolved
		}
	}
	index := make([]int32, n) // DFS number, 0 while unvisited
	low := make([]int32, n)
	var stack []int32
	type frame struct{ v, next int32 }
	var calls []frame
	num := int32(0)
	visit := func(v int32) {
		num++
		index[v], low[v] = num, num
		stack = append(stack, v)
		calls = append(calls, frame{v: v, next: in.off[v]})
	}
	for root := range n {
		if rep[root] != unresolved || index[root] != 0 {
			continue
		}
		visit(int32(root))
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if f.next < in.off[v+1] {
				w := in.src[f.next]
				f.next++
				// A resolved input (a store chi or a finished component) is
				// outside; an unresolved visited one is on the stack.
				switch {
				case rep[w] != unresolved:
				case index[w] == 0:
					visit(w)
				case index[w] < low[v]:
					low[v] = index[w]
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if p := calls[len(calls)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			members := stack[i:]
			stack = stack[:i]
			r := int32(unresolved)
		scan:
			for _, m := range members {
				for _, s := range in.row(int(m)) {
					// -1 is an empty input, unresolved a member.
					switch rs := rep[s]; {
					case rs < 0 || rs == r:
					case r == unresolved:
						r = rs
					default:
						r = v
						break scan
					}
				}
			}
			if r == unresolved {
				r = -1
			}
			for _, m := range members {
				rep[m] = r
			}
		}
	}
}

// adjacency builds Out, In and LoadIn from the grouped representative
// edges, with room for hubs more nodes: their Out and In rows are nil and
// Nodes and Rep have the capacity, so [THREAD-VF] creates its hubs without
// growing any of them. Rows are carved from shared arenas with their
// capacity capped, so [THREAD-VF] appends reallocate a row instead of
// overwriting the next.
func (b *gbuilder) adjacency(hubs int) {
	g := b.g
	memIn, loadIn := b.repMem, b.repLoad
	b.repMem, b.repLoad = csr{}, csr{}
	n := len(g.Nodes)
	g.Nodes = slices.Grow(g.Nodes, hubs)
	g.Rep = slices.Grow(g.Rep, hubs)
	g.In = make([][]int, n+hubs)
	ins := make([]int, len(memIn.src))
	for i, s := range memIn.src {
		ins[i] = int(s)
	}
	deg := make([]int32, n+1)
	for t := 0; t < n; t++ {
		lo, hi := memIn.off[t], memIn.off[t+1]
		if lo < hi {
			g.In[t] = ins[lo:hi:hi]
		}
	}
	for _, s := range memIn.src {
		deg[s]++
	}
	for _, s := range loadIn.src {
		deg[s]++
	}
	// deg[v] becomes the end of v's row, then is walked back to its start.
	for v := 1; v <= n; v++ {
		deg[v] += deg[v-1]
	}
	outs := make([]Edge, deg[n])
	g.Out = make([][]Edge, n+hubs)
	loads := 0
	for l := len(g.Prog.Stmts) - 1; l >= 0; l-- {
		row := loadIn.row(l)
		if len(row) > 0 {
			loads++
		}
		for k := len(row) - 1; k >= 0; k-- {
			s := row[k]
			deg[s]--
			outs[deg[s]] = Edge{ToMem: -1, ToLoad: g.Prog.Stmts[l].(*ir.Load)}
		}
	}
	for t := n - 1; t >= 0; t-- {
		row := memIn.row(t)
		for k := len(row) - 1; k >= 0; k-- {
			s := row[k]
			deg[s]--
			outs[deg[s]] = Edge{ToMem: t}
		}
	}
	for v := 0; v < n; v++ {
		if lo, hi := deg[v], deg[v+1]; lo < hi {
			g.Out[v] = outs[lo:hi:hi]
		}
	}
	g.LoadIn = make(map[*ir.Load][]Edge, loads)
	mirror := make([]Edge, len(loadIn.src))
	for l := range g.Prog.Stmts {
		lo, hi := loadIn.off[l], loadIn.off[l+1]
		if lo == hi {
			continue
		}
		ld := g.Prog.Stmts[l].(*ir.Load)
		for i, s := range loadIn.src[lo:hi] {
			mirror[int(lo)+i] = Edge{ToMem: int(s), ToLoad: ld}
		}
		g.LoadIn[ld] = mirror[lo:hi:hi]
	}
}
