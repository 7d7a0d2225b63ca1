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
			if m.Ctxs.Peek(nc.ctx) == e.Site.ID() {
				out = append(out, nodeCtx{node: e.To, ctx: m.Ctxs.Pop(nc.ctx)})
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

// TestSpanOfAcquisitionTheEntryMisses covers an acquisition the locking
// function's entry does not reach inside the region: returns within a
// recursive callee's SCC are not matched, so the code after recurse(3) is
// cut off from w's entry. Walk B is then everything the entry reaches and
// the span keeps the acquisition itself; the dominator tree does not cover
// that case, so lockedAt handles it apart.
func TestSpanOfAcquisitionTheEntryMisses(t *testing.T) {
	b, err := pipeline.FromSource("t.mc", `
int x;
int *p;
lock_t m;
void down(int n);
void recurse(int n) { down(n); }
void down(int n) { if (n > 0) { recurse(n - 1); } }
void w(void *a) {
	int i;
	for (i = 0; i < 3; i++) {
		p = &x;
		recurse(3);
		lock(&m);
		*p = &x;
		unlock(&m);
	}
}
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
