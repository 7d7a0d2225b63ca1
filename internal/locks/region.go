package locks

import (
	"slices"

	"repro/internal/callgraph"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/threads"
)

// region is the context-expanded subgraph that succs reaches from one
// locking function instance, with dense node indices, CSR successors and
// the dominator tree of the part the instance's entry reaches. Every span
// of an acquisition in that instance is cut from it, so the walk
// "reachable from the entry without passing the acquisition" is replaced
// by one dominator tree per instance. Regions live only while Analyze runs.
type region struct {
	g        *icfg.Graph
	ctxs     *callgraph.Ctxs
	cg       *callgraph.Graph
	baseFunc *ir.Function
	baseCtx  callgraph.Ctx

	// Function instances own consecutive index blocks: the node with ID id
	// of instance k has index blocks[k].base + id - blocks[k].lo.
	inst   map[threads.FuncCtx]int32
	blocks []regionBlock
	nodes  []regionNode

	// adj holds the CSR successor rows. adj[0] is unused, so a zero row
	// start marks a node not expanded yet.
	adj []int32

	// Scratch for the span walks.
	gen   uint32
	stack []int32
}

// regionNode is the per-index state of a region. Its zero value is an
// unexpanded node outside the dominator tree.
type regionNode struct {
	blk int32 // owning instance

	// The successors are adj[lo:hi], filled when the node is first
	// expanded; lo is 0 until then.
	lo, hi int32

	// pre/post number the dominator tree of the nodes the entry reaches;
	// pre is 0 for every other node.
	pre, post int32

	// Generation stamps: mark is the visited set of the current walk,
	// member the current span; accIdx is a member's position in the span's
	// access list (-1 for non-accesses).
	mark, member uint32
	accIdx       int32
}

type regionBlock struct {
	base, lo int32
	ctx      callgraph.Ctx
}

// newRegion indexes the subgraph reached from fc's entry and computes its
// dominator tree.
func newRegion(m *threads.Model, fc threads.FuncCtx) *region {
	rg := &region{
		g:        m.G,
		ctxs:     m.Ctxs,
		cg:       m.CG,
		baseFunc: fc.Func,
		baseCtx:  fc.Ctx,
		inst:     map[threads.FuncCtx]int32{},
		adj:      []int32{0},
	}
	rg.dominators(rg.index(m.G.EntryOf[fc.Func], fc.Ctx))
	return rg
}

// index returns the dense index of (n, ctx), allocating n's function
// instance on first use.
func (rg *region) index(n *icfg.Node, ctx callgraph.Ctx) int32 {
	fc := threads.FuncCtx{Func: n.Func, Ctx: ctx}
	k, ok := rg.inst[fc]
	if !ok {
		lo, hi := rg.g.NodeRange(n.Func)
		k = int32(len(rg.blocks))
		rg.inst[fc] = k
		base := len(rg.nodes)
		rg.blocks = append(rg.blocks, regionBlock{base: int32(base), lo: int32(lo), ctx: ctx})
		rg.nodes = slices.Grow(rg.nodes, hi-lo)[:base+hi-lo]
		for i := base; i < len(rg.nodes); i++ {
			rg.nodes[i] = regionNode{blk: k}
		}
	}
	b := &rg.blocks[k]
	return b.base + int32(n.ID) - b.lo
}

// node returns the ICFG node and context at index i.
func (rg *region) node(i int32) (*icfg.Node, callgraph.Ctx) {
	b := &rg.blocks[rg.nodes[i].blk]
	return rg.g.Nodes[b.lo+i-b.base], b.ctx
}

// succs returns the successors of index i, expanding it on first use: the
// context-qualified successors staying inside the locking function and its
// callees — intra edges, call edges (context push, SCC merged) and return
// edges that do not leave the locking function's instance: matched ones,
// and, in the same context, those within one recursive SCC and those from
// a context at the call-string depth bound, whose calls push no context
// either.
func (rg *region) succs(i int32) []int32 {
	if nd := &rg.nodes[i]; nd.lo > 0 {
		return rg.adj[nd.lo:nd.hi]
	}
	n, ctx := rg.node(i)
	b := rg.blocks[rg.nodes[i].blk]
	start := int32(len(rg.adj))
	for _, e := range n.Out {
		switch e.Kind {
		case icfg.EIntra:
			rg.adj = append(rg.adj, b.base+int32(e.To.ID)-b.lo)
		case icfg.ECall:
			nctx := ctx
			if !rg.cg.SameSCC(n.Func, e.To.Func) {
				nctx = rg.ctxs.Push(ctx, e.Site.ID())
			}
			rg.adj = append(rg.adj, rg.index(e.To, nctx))
		case icfg.ERet:
			if n.Func == rg.baseFunc && ctx == rg.baseCtx {
				continue // never leave the locking function
			}
			if rg.cg.SameSCC(n.Func, e.To.Func) {
				rg.adj = append(rg.adj, rg.index(e.To, ctx))
				continue
			}
			if rg.ctxs.Peek(ctx) == e.Site.ID() {
				rg.adj = append(rg.adj, rg.index(e.To, rg.ctxs.Pop(ctx)))
			}
			if rg.ctxs.Depth(ctx) == rg.ctxs.MaxDepth {
				rg.adj = append(rg.adj, rg.index(e.To, ctx))
			}
		}
	}
	rg.nodes[i].lo, rg.nodes[i].hi = start, int32(len(rg.adj))
	return rg.adj[start:]
}

// dominators computes the dominator tree of the nodes reachable from root
// (Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001)
// and numbers it with pre/post intervals.
func (rg *region) dominators(root int32) {
	// Iterative DFS from root; order collects the postorder and rpo doubles
	// as the visited mark (0 unvisited) until the order is known.
	rpo := make([]int32, len(rg.nodes))
	var order, nodes, pos []int32
	rpo[root] = 1
	nodes, pos = append(nodes, root), append(pos, 0)
	for len(nodes) > 0 {
		top := len(nodes) - 1
		u := nodes[top]
		ss := rg.succs(u)
		if int(pos[top]) < len(ss) {
			v := ss[pos[top]]
			pos[top]++
			if int(v) >= len(rpo) {
				rpo = append(rpo, make([]int32, len(rg.nodes)-len(rpo))...)
			}
			if rpo[v] == 0 {
				rpo[v] = 1
				nodes, pos = append(nodes, v), append(pos, 0)
			}
			continue
		}
		order = append(order, u)
		nodes, pos = nodes[:top], pos[:top]
	}
	n := len(order)
	for k, u := range order {
		rpo[u] = int32(n - k) // root gets 1; higher is later in RPO
	}

	// Predecessors within the reached part, as CSR over reached nodes.
	predStart := make([]int32, len(rg.nodes)+1)
	for _, u := range order {
		for _, v := range rg.succs(u) {
			predStart[v+1]++
		}
	}
	for i := 1; i < len(predStart); i++ {
		predStart[i] += predStart[i-1]
	}
	preds := make([]int32, predStart[len(predStart)-1])
	fill := append([]int32(nil), predStart[:len(predStart)-1]...)
	for _, u := range order {
		for _, v := range rg.succs(u) {
			preds[fill[v]] = u
			fill[v]++
		}
	}

	idom := make([]int32, len(rg.nodes))
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for k := n - 2; k >= 0; k-- { // reverse postorder, root excluded
			u := order[k]
			nd := int32(-1)
			for _, p := range preds[predStart[u]:predStart[u+1]] {
				if idom[p] < 0 {
					continue
				}
				if nd < 0 {
					nd = p
				} else {
					nd = intersect(p, nd)
				}
			}
			if idom[u] != nd {
				idom[u] = nd
				changed = true
			}
		}
	}

	// Tree children as CSR (reusing the predecessor arrays), then pre/post
	// numbers by an iterative DFS.
	childStart := predStart
	clear(childStart)
	for _, u := range order[:n-1] {
		childStart[idom[u]+1]++
	}
	for i := 1; i < len(childStart); i++ {
		childStart[i] += childStart[i-1]
	}
	children := preds[:n-1]
	copy(fill, childStart[:len(childStart)-1])
	for _, u := range order[:n-1] {
		children[fill[idom[u]]] = u
		fill[idom[u]]++
	}
	var clock int32
	nodes, pos = append(nodes[:0], root), append(pos[:0], 0)
	clock++
	rg.nodes[root].pre = clock
	for len(nodes) > 0 {
		top := len(nodes) - 1
		u := nodes[top]
		if kid := childStart[u] + pos[top]; kid < childStart[u+1] {
			pos[top]++
			v := children[kid]
			clock++
			rg.nodes[v].pre = clock
			nodes, pos = append(nodes, v), append(pos, 0)
			continue
		}
		clock++
		rg.nodes[u].post = clock
		nodes, pos = nodes[:top], pos[:top]
	}
}

// lockedAt reports whether index n lies outside walk B of the acquisition
// at index l: no path from the instance's entry reaches n without passing
// l. When the entry reaches l that is exactly "l strictly dominates n";
// when it does not, walk B is everything the entry reaches. The entry
// misses l when a callee on the way never returns.
func (rg *region) lockedAt(l, n int32) bool {
	a, b := &rg.nodes[l], &rg.nodes[n]
	if a.pre == 0 {
		return b.pre == 0
	}
	return a.pre < b.pre && b.post < a.post
}

// walk runs a depth-first walk from start over succs. Each index the walk
// first sees (start excluded) is marked and passed to enter, and is
// expanded only when enter returns true.
func (rg *region) walk(start int32, enter func(j int32) bool) {
	rg.gen++
	gen := rg.gen
	rg.nodes[start].mark = gen
	rg.stack = append(rg.stack[:0], start)
	for len(rg.stack) > 0 {
		i := rg.stack[len(rg.stack)-1]
		rg.stack = rg.stack[:len(rg.stack)-1]
		for _, j := range rg.succs(i) {
			if rg.nodes[j].mark != gen {
				rg.nodes[j].mark = gen
				if enter(j) {
					rg.stack = append(rg.stack, j)
				}
			}
		}
	}
}
