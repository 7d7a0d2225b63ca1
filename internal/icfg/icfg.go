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

// Build constructs the ICFG for every function reachable from main.
func Build(cg *callgraph.Graph) *Graph {
	g := &Graph{
		Prog:     cg.Prog,
		CG:       cg,
		EntryOf:  map[*ir.Function]*Node{},
		ExitOf:   map[*ir.Function]*Node{},
		StmtNode: map[ir.Stmt]*Node{},
		RetNode:  map[ir.Stmt]*Node{},
		nodeEnd:  map[*ir.Function]int{},
	}
	for _, f := range cg.Prog.Funcs {
		g.buildFunc(f)
	}
	g.linkInterproc()
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

func (g *Graph) newNode(kind NodeKind, f *ir.Function, s ir.Stmt) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind, Func: f, Stmt: s}
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *Graph) addEdge(from, to *Node, kind EdgeKind, site ir.Stmt) {
	e := Edge{From: from, To: to, Kind: kind, Site: site}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
}

// buildFunc creates nodes and intra edges for one function.
func (g *Graph) buildFunc(f *ir.Function) {
	entry := g.newNode(NEntry, f, nil)
	exit := g.newNode(NExit, f, nil)
	g.EntryOf[f] = entry
	g.ExitOf[f] = exit

	// first/last ICFG node per block (nil for empty blocks, resolved by
	// pass-through linking below).
	first := map[*ir.Block]*Node{}
	last := map[*ir.Block]*Node{}

	for _, b := range f.Blocks {
		var prev *Node
		for _, s := range b.Stmts {
			n := g.newNode(NStmt, f, s)
			g.StmtNode[s] = n
			head := n
			var tail *Node = n
			switch s.(type) {
			case *ir.Call, *ir.Fork:
				rn := g.newNode(NRet, f, s)
				g.RetNode[s] = rn
				tail = rn
				// Fork sites always fall through (the spawner continues
				// immediately); call sites fall through only when no callee
				// is known (external call), otherwise control flows through
				// the callee via ECall/ERet.
				if _, isFork := s.(*ir.Fork); isFork || len(g.CG.CalleesOf[s]) == 0 {
					g.addEdge(n, rn, EIntra, nil)
				}
			case *ir.Ret:
				g.addEdge(n, exit, EIntra, nil)
			}
			if prev != nil {
				g.addEdge(prev, head, EIntra, nil)
			}
			if first[b] == nil {
				first[b] = head
			}
			prev = tail
			last[b] = tail
		}
	}

	// Resolve empty blocks by path-compressing to the first real node of a
	// successor chain.
	var firstReal func(b *ir.Block, seen map[*ir.Block]bool) []*Node
	firstReal = func(b *ir.Block, seen map[*ir.Block]bool) []*Node {
		if seen[b] {
			return nil
		}
		seen[b] = true
		if n := first[b]; n != nil {
			return []*Node{n}
		}
		var out []*Node
		for _, s := range b.Succs {
			out = append(out, firstReal(s, seen)...)
		}
		return out
	}

	// Entry edge.
	if len(f.Blocks) > 0 {
		for _, n := range firstReal(f.Entry, map[*ir.Block]bool{}) {
			g.addEdge(entry, n, EIntra, nil)
		}
		if first[f.Entry] == nil && blockFallsOffProgram(f.Entry) {
			g.addEdge(entry, exit, EIntra, nil)
		}
	} else {
		g.addEdge(entry, exit, EIntra, nil)
	}

	// Block-to-block edges.
	for _, b := range f.Blocks {
		ln := last[b]
		if ln == nil {
			continue // empty block: handled transitively by firstReal
		}
		if _, isRet := lastStmtOf(b).(*ir.Ret); isRet {
			continue // already wired to exit
		}
		if len(b.Succs) == 0 {
			// Fall-off without Ret (builder normally prevents this).
			g.addEdge(ln, exit, EIntra, nil)
			continue
		}
		for _, sb := range b.Succs {
			for _, n := range firstReal(sb, map[*ir.Block]bool{}) {
				g.addEdge(ln, n, EIntra, nil)
			}
		}
	}
	g.nodeEnd[f] = len(g.Nodes)
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
func (g *Graph) linkInterproc() {
	for _, cn := range g.Nodes {
		if cn.Kind != NStmt {
			continue
		}
		s := cn.Stmt
		rn := g.RetNode[s]
		if rn == nil {
			continue
		}
		callees := g.CG.CalleesOf[s]
		_, isFork := s.(*ir.Fork)
		for _, callee := range callees {
			entry := g.EntryOf[callee]
			exit := g.ExitOf[callee]
			if entry == nil {
				continue
			}
			if isFork {
				g.addEdge(cn, entry, EForkCall, s)
				g.addEdge(exit, rn, EForkRet, s)
			} else {
				g.addEdge(cn, entry, ECall, s)
				g.addEdge(exit, rn, ERet, s)
			}
		}
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
