package locks

// refSpans is the map-based span construction that region.go replaced: per
// acquisition, walk A from the acquisition and walk B from the locking
// function's entry, both over refSuccsWithin, and a per-access walk for the
// reach lists. The tests below hold the region-based Analyze to it.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

// refSuccsWithin yields the context-qualified successors of nc staying
// inside baseFunc and its callees.
func refSuccsWithin(r *Result, nc nodeCtx, baseCtx callgraph.Ctx, baseFunc *ir.Function) []nodeCtx {
	m := r.Model
	var out []nodeCtx
	for _, e := range nc.node.Out {
		switch e.Kind {
		case icfg.EIntra:
			out = append(out, nodeCtx{node: e.To, ctx: nc.ctx})
		case icfg.ECall:
			nctx := nc.ctx
			if !m.CG.SameSCC(nc.node.Func, e.To.Func) {
				nctx = m.Ctxs.Push(nc.ctx, e.Site.ID())
			}
			out = append(out, nodeCtx{node: e.To, ctx: nctx})
		case icfg.ERet:
			if nc.node.Func == baseFunc && nc.ctx == baseCtx {
				continue
			}
			if m.CG.SameSCC(nc.node.Func, e.To.Func) {
				out = append(out, nodeCtx{node: e.To, ctx: nc.ctx})
				continue
			}
			if m.Ctxs.Peek(nc.ctx) == e.Site.ID() {
				out = append(out, nodeCtx{node: e.To, ctx: m.Ctxs.Pop(nc.ctx)})
			}
			if m.Ctxs.Depth(nc.ctx) == m.Ctxs.MaxDepth {
				out = append(out, nodeCtx{node: e.To, ctx: nc.ctx})
			}
		}
	}
	return out
}

// refReach returns the nodes reachable from start through succsWithin,
// start included, expanding only the nodes for which expand holds.
func refReach(r *Result, start nodeCtx, baseCtx callgraph.Ctx, baseFunc *ir.Function, expand func(nodeCtx) bool) map[nodeCtx]bool {
	seen := map[nodeCtx]bool{start: true}
	frontier := []nodeCtx{start}
	for len(frontier) > 0 {
		nc := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if nc != start && !expand(nc) {
			continue
		}
		for _, next := range refSuccsWithin(r, nc, baseCtx, baseFunc) {
			if !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return seen
}

// refSpans renders every span the reference construction finds, in the
// format of spanLines, sorted.
func refSpans(b *pipeline.Base) []string {
	m := b.Model
	r := &Result{Model: m, Pre: m.Pre}
	ctxs := m.Ctxs
	str := func(nc nodeCtx) string { return fmt.Sprintf("%s:%d", ctxs.String(nc.ctx), nc.node.Stmt.ID()) }
	var out []string
	for _, t := range m.Threads {
		for fc := range m.Funcs(t) {
			for _, blk := range fc.Func.Blocks {
				for _, s := range blk.Stmts {
					l, ok := s.(*ir.Lock)
					if !ok {
						continue
					}
					lockObj := r.mustLockObj(l.Ptr)
					if lockObj == nil || m.CG.InRecursion(fc.Func) || m.G.StmtNode[l] == nil {
						continue
					}
					start := nodeCtx{node: m.G.StmtNode[l], ctx: fc.Ctx}
					a := refReach(r, start, fc.Ctx, fc.Func, func(nc nodeCtx) bool {
						u, ok := stmtOf(nc.node).(*ir.Unlock)
						return !ok || !r.mayReleaseLock(u, lockObj)
					})
					bWalk := refReach(r, nodeCtx{node: m.G.EntryOf[fc.Func], ctx: fc.Ctx}, fc.Ctx, fc.Func,
						func(nc nodeCtx) bool { return nc != start })
					nodes := map[nodeCtx]bool{}
					var accesses []nodeCtx
					for nc := range a {
						if bWalk[nc] || nc.node.Kind != icfg.NStmt {
							continue
						}
						nodes[nc] = true
						if ir.IsMemAccess(nc.node.Stmt) {
							accesses = append(accesses, nc)
						}
					}
					if len(nodes) == 0 {
						continue
					}
					var ns, reach []string
					for nc := range nodes {
						ns = append(ns, str(nc))
					}
					for _, acc := range accesses {
						// Reachable through span members only.
						within := refReach(r, acc, fc.Ctx, fc.Func, func(nc nodeCtx) bool { return nodes[nc] })
						for _, other := range accesses {
							if other != acc && within[other] {
								reach = append(reach, str(acc)+">"+str(other))
							}
						}
					}
					sort.Strings(ns)
					sort.Strings(reach)
					out = append(out, fmt.Sprintf("%s|%d|%s|%s|%s", t, l.ID(), ctxs.String(fc.Ctx),
						strings.Join(ns, ","), strings.Join(reach, ",")))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// refPrograms is the differential corpus: the fixtures, suite@2 and 40
// random threaded programs.
func refPrograms(t *testing.T) []testProg {
	progs := fixtureProgs(t)
	progs = append(progs, suiteProgs(2)...)
	return append(progs, threadedProgs(1, 40)...)
}

func TestSpansMatchReference(t *testing.T) {
	for _, p := range refPrograms(t) {
		b, err := pipeline.FromSource(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got := spanLines(b, Analyze(b.Model))
		want := refSpans(b)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: spans differ from the reference\n--- got ---\n%s\n--- want ---\n%s",
				p.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// memberLines returns the source lines of the statements in some span of r.
func memberLines(b *pipeline.Base, r *Result) map[int]bool {
	lineOf := map[ir.StmtID]int{}
	for _, f := range b.Prog.Funcs {
		for _, blk := range f.Blocks {
			for _, s := range blk.Stmts {
				lineOf[s.ID()] = ir.LineOf(s)
			}
		}
	}
	members := map[int]bool{}
	for key, spans := range r.spansOf {
		if len(spans) > 0 {
			members[lineOf[key.stmt]] = true
		}
	}
	return members
}

// srcLine returns the 1-based line of src whose trimmed text is text.
func srcLine(t *testing.T, src, text string) int {
	t.Helper()
	for i, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) == text {
			return i + 1
		}
	}
	t.Fatalf("no line %q", text)
	return 0
}

// TestSpanAfterRecursiveCall: returns within a recursive SCC are taken
// context-insensitively, so the code after recurse(3) stays reachable from
// w's entry. The store to q runs before the acquisition on the loop's first
// iteration, so it is no member of the span although the acquisition
// reaches it through the back edge; members start at the store through p.
func TestSpanAfterRecursiveCall(t *testing.T) {
	const src = `
int x;
int *p;
int *q;
lock_t m;
void down(int n);
void recurse(int n) { down(n); }
void down(int n) { if (n > 0) { recurse(n - 1); } }
void w(void *a) {
	int i;
	recurse(3);
	for (i = 0; i < 3; i++) {
		q = &x;
		lock(&m);
		*p = &x;
	}
}
int main() {
	p = &x;
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`
	b, err := pipeline.FromSource("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	qLine, lockLine, pLine := srcLine(t, src, "q = &x;"), srcLine(t, src, "lock(&m);"), srcLine(t, src, "*p = &x;")
	r := Analyze(b.Model)
	if len(r.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(r.Spans))
	}
	members := memberLines(b, r)
	if members[qLine] || members[lockLine] {
		t.Errorf("span members on lines %v include the store to q (line %d) or the acquisition (line %d)",
			members, qLine, lockLine)
	}
	if !members[pLine] {
		t.Errorf("span members on lines %v miss the store through p (line %d)", members, pLine)
	}
	got, want := spanLines(b, r), refSpans(b)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("spans differ from the reference\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSpanAfterCallAtDepthBound: with call strings bounded at depth 1, h
// runs at the bound, so the call to g pushes no context and g's return
// does not match it. That return is taken in the same context, so the code
// after g() stays reachable from h's entry, and the span's members are the
// same as at the default depth: from the store through p on, not the store
// to q, which runs before the acquisition on the loop's first iteration.
func TestSpanAfterCallAtDepthBound(t *testing.T) {
	const src = `
int x;
int *p;
int *q;
lock_t m;
void g() { }
void h() {
	int i;
	g();
	for (i = 0; i < 3; i++) {
		q = &x;
		lock(&m);
		*p = &x;
	}
}
void w(void *a) { h(); }
int main() {
	p = &x;
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`
	prog, err := pipeline.Compile("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 0} {
		b := pipeline.BuildBase(prog, depth)
		r := Analyze(b.Model)
		if len(r.Spans) != 1 {
			t.Fatalf("depth %d: spans = %d, want 1", depth, len(r.Spans))
		}
		members := memberLines(b, r)
		qLine, lockLine, pLine := srcLine(t, src, "q = &x;"), srcLine(t, src, "lock(&m);"), srcLine(t, src, "*p = &x;")
		if members[qLine] || members[lockLine] || !members[pLine] {
			t.Errorf("depth %d: span members on lines %v; want the store through p (line %d) and neither the store to q (line %d) nor the acquisition (line %d)",
				depth, members, pLine, qLine, lockLine)
		}
		got, want := spanLines(b, r), refSpans(b)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("depth %d: spans differ from the reference\n--- got ---\n%s\n--- want ---\n%s",
				depth, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestSpanOfAcquisitionTheEntryMisses covers an acquisition the locking
// function's entry does not reach inside the region: g never returns, so
// the code after g() is cut off from h's entry. Walk B is then everything
// the entry reaches and the span keeps the acquisition itself; the
// dominator tree does not cover that case, so lockedAt handles it apart.
func TestSpanOfAcquisitionTheEntryMisses(t *testing.T) {
	prog, err := pipeline.Compile("t.mc", `
int x;
int *p;
lock_t m;
void g() { g(); }
void h(void *a) {
	g();
	lock(&m);
	*p = &x;
	unlock(&m);
}
void w(void *a) { h(a); }
int main() {
	p = &x;
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	b := pipeline.BuildBase(prog, 0)
	r := Analyze(b.Model)
	if len(r.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(r.Spans))
	}
	sp := r.Spans[0]
	if got := r.SpansOf(Inst{Thread: sp.Thread, Ctx: sp.Ctx, Stmt: sp.Lock}); len(got) != 1 {
		t.Errorf("the acquisition is in %d spans of its own, want 1", len(got))
	}
	got, want := spanLines(b, r), refSpans(b)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("spans differ from the reference\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
