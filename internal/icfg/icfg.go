// Package icfg builds the interprocedural control-flow graph used by the
// thread-interference analyses and the baseline data-flow analysis.
//
// Following the paper (Section 3.1), each call site is split into a call
// node and a return node, with three kinds of edges: intra-procedural edges,
// call edges (call node → callee entry) and return edges (callee exit →
// return node). Fork sites additionally carry fork-call/fork-return edges to
// their spawn routine; these are excluded from each thread's own ICFG (a
// fork has no outgoing interprocedural edge within its thread) but form the
// sequentialized view Pseq used by memory-SSA construction, in which a fork
// behaves like a call to every routine it may spawn (paper Section 3.2,
// Step 1).
package icfg

import (
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/ir"
)

// EdgeKind classifies ICFG edges.
type EdgeKind uint8

const (
	// EIntra is an intraprocedural control-flow edge.
	EIntra EdgeKind = iota
	// ECall is an interprocedural call edge (call node → callee entry).
	ECall
	// ERet is an interprocedural return edge (callee exit → return node).
	ERet
	// EForkCall is a fork-site edge to the spawn routine's entry; part of
	// Pseq but not of the spawning thread's own ICFG.
	EForkCall
	// EForkRet is the matching routine-exit → fork-return edge in Pseq.
	EForkRet
)

func (k EdgeKind) String() string {
	switch k {
	case EIntra:
		return "intra"
	case ECall:
		return "call"
	case ERet:
		return "ret"
	case EForkCall:
		return "fork-call"
	case EForkRet:
		return "fork-ret"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// NodeKind classifies ICFG nodes.
type NodeKind uint8

const (
	// NStmt is an ordinary statement node (also serves as the call node of
	// Call/Fork statements).
	NStmt NodeKind = iota
	// NRet is the synthetic return node of a Call/Fork statement.
	NRet
	// NEntry is a function entry node.
	NEntry
	// NExit is a function exit node.
	NExit
)

// Node is an ICFG node.
type Node struct {
	ID   int
	Kind NodeKind
	Func *ir.Function
	// Stmt is the underlying statement for NStmt and NRet nodes; nil for
	// entries and exits.
	Stmt ir.Stmt

	Out []Edge
	In  []Edge
}

func (n *Node) String() string {
	switch n.Kind {
	case NEntry:
		return "entry(" + n.Func.Name + ")"
	case NExit:
		return "exit(" + n.Func.Name + ")"
	case NRet:
		return fmt.Sprintf("ret-of[%s]", n.Stmt)
	default:
		return fmt.Sprintf("[%s]", n.Stmt)
	}
}

// Edge is a directed ICFG edge. Site identifies the call/fork statement for
// interprocedural edges (nil for intra edges).
type Edge struct {
	To   *Node
	From *Node
	Kind EdgeKind
	Site ir.Stmt
}

// Graph is the whole-program ICFG.
type Graph struct {
	Prog  *ir.Program
	CG    *callgraph.Graph
	Nodes []*Node

	EntryOf map[*ir.Function]*Node
	ExitOf  map[*ir.Function]*Node
	// StmtNode maps each statement to its primary node; RetNode maps
	// Call/Fork statements to their return node.
	StmtNode map[ir.Stmt]*Node
	RetNode  map[ir.Stmt]*Node

	// nodeEnd is one past the ID of each function's last node.
	nodeEnd map[*ir.Function]int
}

// Build constructs the ICFG for every function of the program.
//
// Construction is flat: the nodes live in one arena sized from a counting
// pass, and the edges are first recorded as compact (from, to, kind, site)
// records, then laid out in one array holding every node's Out and In
// lists, each a subslice with cap == len, filled in insertion order. The
// graph is never mutated after Build; an append to a node's list would copy
// rather than overwrite its neighbour's.
func Build(cg *callgraph.Graph) *Graph {
	prog := cg.Prog
	nStmts, nSites, maxBlocks := 0, 0, 0
	for _, f := range prog.Funcs {
		maxBlocks = max(maxBlocks, len(f.Blocks))
		for _, b := range f.Blocks {
			nStmts += len(b.Stmts)
			for _, s := range b.Stmts {
				switch s.(type) {
				case *ir.Call, *ir.Fork:
					nSites++
				}
			}
		}
	}
	nFuncs := len(prog.Funcs)
	nNodes := 2*nFuncs + nStmts + nSites
	g := &Graph{
		Prog:     prog,
		CG:       cg,
		Nodes:    make([]*Node, 0, nNodes),
		EntryOf:  make(map[*ir.Function]*Node, nFuncs),
		ExitOf:   make(map[*ir.Function]*Node, nFuncs),
		StmtNode: make(map[ir.Stmt]*Node, nStmts),
		RetNode:  make(map[ir.Stmt]*Node, nSites),
		nodeEnd:  make(map[*ir.Function]int, nFuncs),
	}
	bld := &builder{
		g:       g,
		arena:   make([]Node, 0, nNodes),
		pending: make([]pendingEdge, 0, nNodes+2*nSites),
		sites:   make([]callSite, 0, nSites),
		first:   make([]*Node, maxBlocks),
		last:    make([]*Node, maxBlocks),
		seen:    make([]uint32, maxBlocks),
	}
	for _, f := range prog.Funcs {
		bld.buildFunc(f)
	}
	if len(bld.arena) != nNodes {
		// newNode's pointers into the arena are valid only if it never
		// grew past the counted size.
		panic(fmt.Sprintf("icfg: built %d nodes, counted %d", len(bld.arena), nNodes))
	}
	bld.linkInterproc()
	bld.layoutEdges()
	return g
}

// NodeRange returns the half-open ID range [lo, hi) of f's nodes: buildFunc
// creates a function's nodes consecutively, its entry first, so analyses
// can index per-function state by n.ID-lo. It returns (0, 0) for a
// function without nodes.
func (g *Graph) NodeRange(f *ir.Function) (lo, hi int) {
	entry := g.EntryOf[f]
	if entry == nil {
		return 0, 0
	}
	return entry.ID, g.nodeEnd[f]
}

// noSite marks a pending edge without a call site.
const noSite = -1

// pendingEdge is an edge recorded during construction, before the edge
// array is laid out. site is the call node's ID, or noSite.
type pendingEdge struct {
	from, to, site int32
	kind           EdgeKind
}

// callSite is a Call or Fork statement's call and return nodes and its
// resolved callees, recorded in node order for linkInterproc.
type callSite struct {
	call, ret *Node
	callees   []*ir.Function
}

// builder holds Build's scratch state, so the Graph retains none of it.
type builder struct {
	g       *Graph
	arena   []Node
	pending []pendingEdge
	sites   []callSite

	// first and last are the first and last node of each block of the
	// current function, indexed by Block.Index (nil for empty blocks,
	// resolved by pass-through linking).
	first, last []*Node
	// seen marks the blocks a firstReal walk has visited: a block is seen
	// when its stamp equals gen, so each walk starts by bumping gen.
	seen []uint32
	gen  uint32
	// reals is firstReal's output buffer, reused across walks.
	reals []*Node
}

func (bld *builder) newNode(kind NodeKind, f *ir.Function, s ir.Stmt) *Node {
	bld.arena = append(bld.arena, Node{ID: len(bld.arena), Kind: kind, Func: f, Stmt: s})
	n := &bld.arena[len(bld.arena)-1]
	bld.g.Nodes = append(bld.g.Nodes, n)
	return n
}

// addEdge records an edge; site is the call node of an interprocedural
// edge, nil for intra edges.
func (bld *builder) addEdge(from, to *Node, kind EdgeKind, site *Node) {
	e := pendingEdge{from: int32(from.ID), to: int32(to.ID), site: noSite, kind: kind}
	if site != nil {
		e.site = int32(site.ID)
	}
	bld.pending = append(bld.pending, e)
}

// buildFunc creates nodes and intra edges for one function.
func (bld *builder) buildFunc(f *ir.Function) {
	g := bld.g
	entry := bld.newNode(NEntry, f, nil)
	exit := bld.newNode(NExit, f, nil)
	g.EntryOf[f] = entry
	g.ExitOf[f] = exit

	first, last := bld.first[:len(f.Blocks)], bld.last[:len(f.Blocks)]
	clear(first)
	clear(last)
	for _, b := range f.Blocks {
		var prev *Node
		for _, s := range b.Stmts {
			n := bld.newNode(NStmt, f, s)
			g.StmtNode[s] = n
			head := n
			var tail *Node = n
			switch s.(type) {
			case *ir.Call, *ir.Fork:
				rn := bld.newNode(NRet, f, s)
				g.RetNode[s] = rn
				tail = rn
				callees := g.CG.CalleesOf[s]
				bld.sites = append(bld.sites, callSite{call: n, ret: rn, callees: callees})
				// Fork sites always fall through (the spawner continues
				// immediately); call sites fall through only when no callee
				// is known (external call), otherwise control flows through
				// the callee via ECall/ERet.
				if _, isFork := s.(*ir.Fork); isFork || len(callees) == 0 {
					bld.addEdge(n, rn, EIntra, nil)
				}
			case *ir.Ret:
				bld.addEdge(n, exit, EIntra, nil)
			}
			if prev != nil {
				bld.addEdge(prev, head, EIntra, nil)
			}
			if first[b.Index] == nil {
				first[b.Index] = head
			}
			prev = tail
			last[b.Index] = tail
		}
	}

	// Entry edge.
	if len(f.Blocks) > 0 {
		for _, n := range bld.firstReal(f.Entry) {
			bld.addEdge(entry, n, EIntra, nil)
		}
		if first[f.Entry.Index] == nil && blockFallsOffProgram(f.Entry) {
			bld.addEdge(entry, exit, EIntra, nil)
		}
	} else {
		bld.addEdge(entry, exit, EIntra, nil)
	}

	// Block-to-block edges.
	for _, b := range f.Blocks {
		ln := last[b.Index]
		if ln == nil {
			continue // empty block: handled transitively by firstReal
		}
		if _, isRet := lastStmtOf(b).(*ir.Ret); isRet {
			continue // already wired to exit
		}
		if len(b.Succs) == 0 {
			// Fall-off without Ret (builder normally prevents this).
			bld.addEdge(ln, exit, EIntra, nil)
			continue
		}
		for _, sb := range b.Succs {
			for _, n := range bld.firstReal(sb) {
				bld.addEdge(ln, n, EIntra, nil)
			}
		}
	}
	g.nodeEnd[f] = len(bld.arena)
}

// firstReal resolves empty blocks by path-compressing to the first real
// node of each successor chain from b, in depth-first order. The result is
// a reused buffer, valid until the next call.
func (bld *builder) firstReal(b *ir.Block) []*Node {
	bld.gen++
	bld.reals = bld.reals[:0]
	bld.walkFirstReal(b)
	return bld.reals
}

func (bld *builder) walkFirstReal(b *ir.Block) {
	if bld.seen[b.Index] == bld.gen {
		return
	}
	bld.seen[b.Index] = bld.gen
	if n := bld.first[b.Index]; n != nil {
		bld.reals = append(bld.reals, n)
		return
	}
	for _, s := range b.Succs {
		bld.walkFirstReal(s)
	}
}

func lastStmtOf(b *ir.Block) ir.Stmt {
	if len(b.Stmts) == 0 {
		return nil
	}
	return b.Stmts[len(b.Stmts)-1]
}

// blockFallsOffProgram reports whether an empty entry chain reaches no real
// node (degenerate empty function bodies).
func blockFallsOffProgram(b *ir.Block) bool {
	return len(b.Stmts) == 0 && len(b.Succs) == 0
}

// linkInterproc adds call/ret and fork-call/fork-ret edges, walking the
// call sites in statement (node) order so every build orders Node.Out and
// Node.In the same way.
func (bld *builder) linkInterproc() {
	g := bld.g
	for _, cs := range bld.sites {
		call, ret := ECall, ERet
		if _, isFork := cs.call.Stmt.(*ir.Fork); isFork {
			call, ret = EForkCall, EForkRet
		}
		for _, callee := range cs.callees {
			entry := g.EntryOf[callee]
			if entry == nil {
				continue
			}
			bld.addEdge(cs.call, entry, call, cs.call)
			bld.addEdge(g.ExitOf[callee], cs.ret, ret, cs.call)
		}
	}
}

// layoutEdges stores the pending edges in one array of 2E entries: each
// node's Out list followed by its In list, both in insertion order, with
// cap == len. A node without edges keeps nil lists.
func (bld *builder) layoutEdges() {
	nodes := bld.arena
	outDeg := make([]int32, len(nodes))
	inDeg := make([]int32, len(nodes))
	for _, e := range bld.pending {
		outDeg[e.from]++
		inDeg[e.to]++
	}
	edges := make([]Edge, 2*len(bld.pending))
	off := 0
	for i := range nodes {
		// Give each list a zero-length window for now; the fill below
		// appends within its capacity.
		if d := int(outDeg[i]); d > 0 {
			nodes[i].Out = edges[off : off : off+d]
			off += d
		}
		if d := int(inDeg[i]); d > 0 {
			nodes[i].In = edges[off : off : off+d]
			off += d
		}
	}
	for _, pe := range bld.pending {
		e := Edge{From: &nodes[pe.from], To: &nodes[pe.to], Kind: pe.kind}
		if pe.site != noSite {
			e.Site = nodes[pe.site].Stmt
		}
		nodes[pe.from].Out = append(nodes[pe.from].Out, e)
		nodes[pe.to].In = append(nodes[pe.to].In, e)
	}
}

// FirstStmtNode returns the first statement node of f's body following
// entry, or the exit node for empty functions. This is Entry(S_t) in the
// paper's thread model.
func (g *Graph) FirstStmtNode(f *ir.Function) *Node {
	entry := g.EntryOf[f]
	if entry == nil {
		return nil
	}
	for _, e := range entry.Out {
		if e.Kind == EIntra {
			return e.To
		}
	}
	return g.ExitOf[f]
}

// Stats returns node and edge counts.
func (g *Graph) Stats() (nodes, edges int) {
	nodes = len(g.Nodes)
	for _, n := range g.Nodes {
		edges += len(n.Out)
	}
	return
}
