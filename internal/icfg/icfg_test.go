package icfg_test

import (
	"testing"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/frontend/parser"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/irbuild"
)

func build(t *testing.T, src string) *icfg.Graph {
	t.Helper()
	f, errs := parser.Parse("t.mc", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	prog, err := irbuild.Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return icfg.Build(callgraph.Build(andersen.Analyze(prog)))
}

// findStmt locates the first statement of the given type in a function.
func findStmt[T ir.Stmt](g *icfg.Graph, fname string) T {
	var zero T
	f := g.Prog.FuncByName[fname]
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			if v, ok := s.(T); ok {
				return v
			}
		}
	}
	return zero
}

func TestCallReturnSplit(t *testing.T) {
	g := build(t, `
void callee() { }
int main() { callee(); return 0; }
`)
	call := findStmt[*ir.Call](g, "main")
	cn := g.StmtNode[call]
	rn := g.RetNode[call]
	if cn == nil || rn == nil {
		t.Fatal("missing call/ret nodes")
	}
	// Resolved calls have no direct fall-through; control goes through the
	// callee via ECall/ERet.
	var hasCallEdge, hasIntraShortcut bool
	for _, e := range cn.Out {
		switch e.Kind {
		case icfg.ECall:
			hasCallEdge = true
			if e.To != g.EntryOf[g.Prog.FuncByName["callee"]] {
				t.Error("call edge target")
			}
		case icfg.EIntra:
			hasIntraShortcut = true
		}
	}
	if !hasCallEdge {
		t.Error("missing ECall edge")
	}
	if hasIntraShortcut {
		t.Error("resolved call must not fall through directly")
	}
	// Return edge from callee exit to the return node.
	exit := g.ExitOf[g.Prog.FuncByName["callee"]]
	found := false
	for _, e := range exit.Out {
		if e.Kind == icfg.ERet && e.To == rn {
			found = true
		}
	}
	if !found {
		t.Error("missing ERet edge")
	}
}

func TestForkEdges(t *testing.T) {
	g := build(t, `
void worker(void *a) { }
int main() {
	thread_t t;
	t = spawn(worker, NULL);
	join(t);
	return 0;
}
`)
	fork := findStmt[*ir.Fork](g, "main")
	cn := g.StmtNode[fork]
	rn := g.RetNode[fork]
	var fallThrough, forkCall bool
	for _, e := range cn.Out {
		switch e.Kind {
		case icfg.EIntra:
			if e.To == rn {
				fallThrough = true
			}
		case icfg.EForkCall:
			forkCall = true
		}
	}
	if !fallThrough {
		t.Error("fork must fall through (the spawner continues)")
	}
	if !forkCall {
		t.Error("fork must have an EForkCall edge to the routine (Pseq)")
	}
	// EForkRet from routine exit back to the fork's return node.
	exit := g.ExitOf[g.Prog.FuncByName["worker"]]
	found := false
	for _, e := range exit.Out {
		if e.Kind == icfg.EForkRet && e.To == rn {
			found = true
		}
	}
	if !found {
		t.Error("missing EForkRet edge")
	}
}

func TestRetsWireToExit(t *testing.T) {
	g := build(t, `
int f(int c) {
	if (c > 0) { return 1; }
	return 2;
}
int main() { f(0); return 0; }
`)
	exit := g.ExitOf[g.Prog.FuncByName["f"]]
	rets := 0
	for _, e := range exit.In {
		if e.Kind == icfg.EIntra {
			if _, ok := e.From.Stmt.(*ir.Ret); ok {
				rets++
			}
		}
	}
	if rets != 2 {
		t.Errorf("ret edges into exit = %d, want 2", rets)
	}
}

func TestEmptyBlocksCompressed(t *testing.T) {
	g := build(t, `
int main() {
	int i;
	for (i = 0; i < 3; i++) {
	}
	return 0;
}
`)
	// Every node must be connected: no node except exits has zero out.
	for _, n := range g.Nodes {
		if n.Kind == icfg.NExit {
			continue
		}
		if len(n.Out) == 0 && n.Func.Name == "main" {
			t.Errorf("dangling node %v", n)
		}
	}
}

func TestUnresolvedExternalCallFallsThrough(t *testing.T) {
	g := build(t, `
void *fp;
int main() {
	fp(1);
	return 0;
}
`)
	call := findStmt[*ir.Call](g, "main")
	if call == nil {
		t.Skip("call lowered differently")
	}
	cn := g.StmtNode[call]
	hasIntra := false
	for _, e := range cn.Out {
		if e.Kind == icfg.EIntra {
			hasIntra = true
		}
	}
	if !hasIntra {
		t.Error("unresolved call must fall through")
	}
}

func TestFirstStmtNode(t *testing.T) {
	g := build(t, `
int main() {
	int x;
	x = 1;
	return x;
}
`)
	n := g.FirstStmtNode(g.Prog.Main)
	if n == nil || n.Kind == icfg.NEntry {
		t.Errorf("FirstStmtNode = %v", n)
	}
}

func TestStats(t *testing.T) {
	g := build(t, `int main() { return 0; }`)
	nodes, edges := g.Stats()
	if nodes == 0 || edges == 0 {
		t.Errorf("stats %d/%d", nodes, edges)
	}
}

// TestNodeRangeContiguous checks that each function's nodes occupy exactly
// its NodeRange, entry first, and that the ranges partition the graph.
func TestNodeRangeContiguous(t *testing.T) {
	g := build(t, `
int g;
int *p;
void worker(void *a) { p = &g; }
void helper(int n) {
	int i;
	for (i = 0; i < n; i++) { p = &g; }
	if (n) { return; }
}
int main() {
	thread_t h;
	h = spawn(worker, NULL);
	helper(3);
	join(h);
	return 0;
}
`)
	covered := 0
	for _, f := range g.Prog.Funcs {
		lo, hi := g.NodeRange(f)
		if g.Nodes[lo] != g.EntryOf[f] {
			t.Errorf("%s: range starts at %v, not its entry", f.Name, g.Nodes[lo])
		}
		for id := lo; id < hi; id++ {
			if n := g.Nodes[id]; n.Func != f || n.ID != id {
				t.Errorf("%s: node %d in range [%d,%d) is %v of %s", f.Name, id, lo, hi, n, n.Func.Name)
			}
		}
		covered += hi - lo
	}
	if covered != len(g.Nodes) {
		t.Errorf("ranges cover %d of %d nodes", covered, len(g.Nodes))
	}
}

// TestEdgeListsExactCap checks that every Out and In list has cap == len,
// so an append to one copies it instead of writing into the shared edge
// array, and that every edge appears once in its source's Out and once in
// its target's In.
func TestEdgeListsExactCap(t *testing.T) {
	g := build(t, `
int g;
int *p;
void worker(void *a) { p = &g; }
int main() {
	thread_t h;
	int i;
	h = spawn(worker, NULL);
	for (i = 0; i < 3; i++) { worker(NULL); }
	join(h);
	worker(NULL);
	return 0;
}
`)
	out, in := 0, 0
	for _, n := range g.Nodes {
		if cap(n.Out) != len(n.Out) || cap(n.In) != len(n.In) {
			t.Errorf("%v: Out len %d cap %d, In len %d cap %d", n, len(n.Out), cap(n.Out), len(n.In), cap(n.In))
		}
		for _, e := range n.Out {
			if e.From != n {
				t.Errorf("%v: Out edge from %v", n, e.From)
			}
		}
		for _, e := range n.In {
			if e.To != n {
				t.Errorf("%v: In edge to %v", n, e.To)
			}
		}
		out += len(n.Out)
		in += len(n.In)
	}
	if out != in {
		t.Errorf("%d Out entries, %d In entries", out, in)
	}
}
