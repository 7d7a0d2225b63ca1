// Package callgraph builds the program call graph from the pre-analysis
// (on-the-fly resolved targets), computes its strongly connected components,
// and provides the interned calling-context (call-string) machinery used by
// every context-sensitive phase.
//
// As in the paper (Section 3.1), a context is a stack of call sites from
// main's entry to the current site; call sites inside a call-graph SCC are
// analyzed context-insensitively (pushing such a site is a no-op), which
// keeps the context space finite even for recursive programs.
package callgraph

import (
	"fmt"
	"strings"

	"repro/internal/andersen"
	"repro/internal/ir"
)

// Graph is the program call graph.
type Graph struct {
	Prog *ir.Program
	Pre  *andersen.Result

	// CalleesOf maps a Call or Fork statement to its resolved targets.
	CalleesOf map[ir.Stmt][]*ir.Function
	// CallersOf maps a function to the call/fork statements targeting it.
	CallersOf map[*ir.Function][]ir.Stmt

	// SCCOf assigns each function its SCC index; functions in the same
	// cycle share an index. Trivial SCCs (single function, no self loop)
	// also get indices, with selfRecursive marking true cycles.
	SCCOf        map[*ir.Function]int
	sccRecursive []bool
	numSCCs      int

	// Reachable lists functions reachable from main (via calls and forks).
	Reachable map[*ir.Function]bool
}

// funcGraph is the function-level successor relation Build derives once
// for the SCC and reachability passes: function i is Prog.Funcs[i], and
// its callees (calls and forks, each once, in first-occurrence statement
// order) are succ[off[i]:off[i+1]].
type funcGraph struct {
	num  map[*ir.Function]int32
	off  []int32
	succ []int32
}

// Build constructs the call graph from pre-analysis results.
func Build(pre *andersen.Result) *Graph {
	g := &Graph{
		Prog:      pre.Prog,
		Pre:       pre,
		CalleesOf: map[ir.Stmt][]*ir.Function{},
		CallersOf: map[*ir.Function][]ir.Stmt{},
		SCCOf:     map[*ir.Function]int{},
		Reachable: map[*ir.Function]bool{},
	}
	n := len(pre.Prog.Funcs)
	fg := &funcGraph{num: make(map[*ir.Function]int32, n), off: make([]int32, n+1)}
	for i, f := range pre.Prog.Funcs {
		fg.num[f] = int32(i)
	}
	// seenBy[j] is 1 + the number of the last function that listed callee
	// j, so each function's list keeps the first occurrence only.
	seenBy := make([]int32, n)
	for i, f := range pre.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				var tgts []*ir.Function
				switch s := s.(type) {
				case *ir.Call:
					tgts = pre.CallTargets[s]
				case *ir.Fork:
					tgts = pre.ForkTargets[s]
				default:
					continue
				}
				g.CalleesOf[s] = tgts
				for _, t := range tgts {
					g.CallersOf[t] = append(g.CallersOf[t], s)
					j := fg.id(t)
					if seenBy[j] != int32(i)+1 {
						seenBy[j] = int32(i) + 1
						fg.succ = append(fg.succ, j)
					}
				}
			}
		}
		fg.off[i+1] = int32(len(fg.succ))
	}
	g.computeSCCs(fg)
	g.computeReachable(fg)
	return g
}

// id returns f's number. Every function is in Prog.Funcs (ir.NewFunc
// registers it there), so a call target outside it is a broken program.
func (fg *funcGraph) id(f *ir.Function) int32 {
	j, ok := fg.num[f]
	if !ok {
		panic(fmt.Sprintf("callgraph: %s is not a function of the program", f.Name))
	}
	return j
}

// succs returns the callees of function i.
func (fg *funcGraph) succs(i int32) []int32 { return fg.succ[fg.off[i]:fg.off[i+1]] }

// computeSCCs runs Tarjan's algorithm over the function graph.
func (g *Graph) computeSCCs(fg *funcGraph) {
	funcs := g.Prog.Funcs
	n := len(funcs)
	index := make([]int32, n) // DFS number + 1; 0 means unvisited
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	var counter int32

	var strongconnect func(f int32)
	strongconnect = func(f int32) {
		counter++
		index[f] = counter
		low[f] = counter
		stack = append(stack, f)
		onStack[f] = true
		selfLoop := false
		for _, w := range fg.succs(f) {
			if w == f {
				selfLoop = true
				continue
			}
			if index[w] == 0 {
				strongconnect(w)
				low[f] = min(low[f], low[w])
			} else if onStack[w] {
				low[f] = min(low[f], index[w])
			}
		}
		if low[f] == index[f] {
			id := g.numSCCs
			g.numSCCs++
			size := 0
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				g.SCCOf[funcs[w]] = id
				size++
				if w == f {
					break
				}
			}
			g.sccRecursive = append(g.sccRecursive, size > 1 || selfLoop)
		}
	}
	for f := range funcs {
		if index[f] == 0 {
			strongconnect(int32(f))
		}
	}
}

// InRecursion reports whether f participates in a call-graph cycle.
func (g *Graph) InRecursion(f *ir.Function) bool {
	id, ok := g.SCCOf[f]
	return ok && g.sccRecursive[id]
}

// SameSCC reports whether two functions share a call-graph cycle.
func (g *Graph) SameSCC(a, b *ir.Function) bool {
	ia, oka := g.SCCOf[a]
	ib, okb := g.SCCOf[b]
	return oka && okb && ia == ib && g.sccRecursive[ia]
}

// computeReachable marks the functions main reaches through calls and
// forks.
func (g *Graph) computeReachable(fg *funcGraph) {
	if g.Prog.Main == nil {
		return
	}
	main := fg.id(g.Prog.Main)
	seen := make([]bool, len(g.Prog.Funcs))
	seen[main] = true
	g.Reachable[g.Prog.Main] = true
	stack := []int32{main}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range fg.succs(f) {
			if !seen[w] {
				seen[w] = true
				g.Reachable[g.Prog.Funcs[w]] = true
				stack = append(stack, w)
			}
		}
	}
}

// ReachableFuncs returns reachable functions in declaration order.
func (g *Graph) ReachableFuncs() []*ir.Function {
	var out []*ir.Function
	for _, f := range g.Prog.Funcs {
		if g.Reachable[f] {
			out = append(out, f)
		}
	}
	return out
}

// ---- Contexts ----

// Ctx is an interned calling context (a call string). The zero value is the
// empty context (main's entry).
type Ctx int32

// EmptyCtx is the context of main's entry.
const EmptyCtx Ctx = 0

// ctxEntry records one interned context frame.
type ctxEntry struct {
	parent Ctx
	site   ir.StmtID
	depth  int
}

// Ctxs interns contexts. It is owned by one analysis run and is not
// goroutine-safe.
type Ctxs struct {
	entries []ctxEntry
	index   map[ctxEntry]Ctx
	// MaxDepth bounds call-string length; pushes beyond it keep the context
	// unchanged (sound merging of deep contexts).
	MaxDepth int
}

// DefaultMaxDepth is the call-string depth bound used when the caller does
// not pick one. fsam.Config.Normalize mirrors it so cache keys over a
// canonicalized Config cannot drift from the depth actually used.
const DefaultMaxDepth = 32

// NewCtxs returns a context table with the given depth bound (<=0 means
// DefaultMaxDepth).
func NewCtxs(maxDepth int) *Ctxs {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	c := &Ctxs{index: map[ctxEntry]Ctx{}, MaxDepth: maxDepth}
	c.entries = append(c.entries, ctxEntry{parent: -1, site: ir.NoStmt, depth: 0})
	return c
}

// Push returns ctx extended with site. Pushing past MaxDepth returns ctx
// unchanged.
func (c *Ctxs) Push(ctx Ctx, site ir.StmtID) Ctx {
	e := ctxEntry{parent: ctx, site: site, depth: c.entries[ctx].depth + 1}
	if e.depth > c.MaxDepth {
		return ctx
	}
	if id, ok := c.index[e]; ok {
		return id
	}
	id := Ctx(len(c.entries))
	c.entries = append(c.entries, e)
	c.index[e] = id
	return id
}

// Pop removes the innermost frame; popping the empty context returns it.
func (c *Ctxs) Pop(ctx Ctx) Ctx {
	if ctx == EmptyCtx {
		return EmptyCtx
	}
	return c.entries[ctx].parent
}

// Peek returns the innermost call site, or ir.NoStmt for the empty context.
func (c *Ctxs) Peek(ctx Ctx) ir.StmtID {
	return c.entries[ctx].site
}

// Depth returns the number of frames in ctx.
func (c *Ctxs) Depth(ctx Ctx) int { return c.entries[ctx].depth }

// Contains reports whether site occurs anywhere in ctx (used to detect
// context cycles when the depth bound is hit).
func (c *Ctxs) Contains(ctx Ctx, site ir.StmtID) bool {
	for ctx != EmptyCtx {
		if c.entries[ctx].site == site {
			return true
		}
		ctx = c.entries[ctx].parent
	}
	return false
}

// Sites returns the call-site IDs outermost-first.
func (c *Ctxs) Sites(ctx Ctx) []ir.StmtID {
	var rev []ir.StmtID
	for ctx != EmptyCtx {
		rev = append(rev, c.entries[ctx].site)
		ctx = c.entries[ctx].parent
	}
	out := make([]ir.StmtID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// String renders ctx as [s1, s2, ...] with statement IDs.
func (c *Ctxs) String(ctx Ctx) string {
	sites := c.Sites(ctx)
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Len returns the number of interned contexts.
func (c *Ctxs) Len() int { return len(c.entries) }
