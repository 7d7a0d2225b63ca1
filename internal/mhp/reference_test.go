package mhp

// refFacts is the map-based data-flow the slot arrays replaced: one heap
// set per (node, ctx) in a map per thread, fresh kill sets on every visit.
// TestFactsMatchReference holds AnalyzeCtx to it fact for fact and visit
// for visit.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/frontend/parser"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/irbuild"
	"repro/internal/pts"
	"repro/internal/randprog"
	"repro/internal/threads"
	"repro/internal/workload"
)

type refNode struct {
	node *icfg.Node
	ctx  callgraph.Ctx
}

// refFacts runs the reference data-flow and returns every thread's facts
// and the total node visits.
func refFacts(m *threads.Model) (map[*threads.Thread]map[refNode]*pts.Set, int) {
	r := &Result{Model: m}
	all := map[*threads.Thread]map[refNode]*pts.Set{}
	iterations := 0
	for _, t := range m.Threads {
		facts := map[refNode]*pts.Set{}
		all[t] = facts
		var work []refNode
		inWork := map[refNode]bool{}
		merge := func(nc refNode, s *pts.Set) {
			f := facts[nc]
			fresh := f == nil
			if fresh {
				f = &pts.Set{}
				facts[nc] = f
			}
			if (f.UnionWith(s) || fresh) && !inWork[nc] {
				inWork[nc] = true
				work = append(work, nc)
			}
		}
		minus := func(s, kills *pts.Set) *pts.Set {
			out := &pts.Set{}
			s.ForEach(func(id uint32) {
				if !kills.Has(id) {
					out.Add(id)
				}
			})
			return out
		}
		seed := r.entrySeed(t)
		for _, routine := range t.Routines {
			if entry := m.G.EntryOf[routine]; entry != nil {
				merge(refNode{entry, t.StartCtx}, seed)
			}
		}
		for len(work) > 0 {
			nc := work[len(work)-1]
			work = work[:len(work)-1]
			inWork[nc] = false
			iterations++
			n, ctx := nc.node, nc.ctx
			out := facts[nc]
			if n.Kind == icfg.NStmt {
				switch s := n.Stmt.(type) {
				case *ir.Fork:
					for _, kid := range m.ThreadsAtFork[s] {
						if kid.Spawner == t && kid.SpawnCtx == ctx {
							out = out.Copy()
							out.Add(uint32(kid.ID))
							out.UnionWith(m.Descendants(kid))
						}
					}
				case *ir.Join:
					if kills := m.KillsAt(s, t); !kills.IsEmpty() {
						out = minus(out, kills)
					}
				}
			}
			for _, e := range n.Out {
				switch e.Kind {
				case icfg.EIntra:
					next := out
					if ek := m.EdgeKills(n, e.To, t); !ek.IsEmpty() {
						next = minus(out, ek)
					}
					merge(refNode{e.To, ctx}, next)
				case icfg.ECall:
					nctx := ctx
					if !m.CG.SameSCC(n.Func, e.To.Func) {
						nctx = m.Ctxs.Push(ctx, e.Site.ID())
					}
					merge(refNode{e.To, nctx}, out)
				case icfg.ERet:
					if m.CG.SameSCC(n.Func, e.To.Func) {
						merge(refNode{e.To, ctx}, out)
					} else {
						if m.Ctxs.Peek(ctx) == e.Site.ID() {
							merge(refNode{e.To, m.Ctxs.Pop(ctx)}, out)
						}
						if m.Ctxs.Depth(ctx) == m.Ctxs.MaxDepth {
							merge(refNode{e.To, ctx}, out)
						}
					}
				}
			}
		}
	}
	return all, iterations
}

// buildModel compiles src and builds its thread model (pipeline.FromSource
// without the import cycle through pipeline).
func buildModel(t *testing.T, name, src string) *threads.Model {
	t.Helper()
	return buildModelDepth(t, name, src, 0)
}

// buildModelDepth is buildModel with call strings bounded at depth (0 is
// the default bound).
func buildModelDepth(t *testing.T, name, src string, depth int) *threads.Model {
	t.Helper()
	f, err := parser.ParseChecked(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog, err := irbuild.BuildChecked(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pre := andersen.Analyze(prog)
	cg := callgraph.Build(pre)
	return threads.BuildModel(pre, cg, icfg.Build(cg), callgraph.NewCtxs(depth))
}

// refPrograms is the differential corpus: the fixtures, suite@2 and 40
// random threaded programs.
func refPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := map[string]string{}
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(p)] = string(src)
	}
	for _, spec := range workload.Suite {
		progs[spec.Name+"@2"] = workload.GenerateSpec(spec, 2)
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs[fmt.Sprintf("threaded#%d", seed)] = randprog.Threaded(seed, 3)
	}
	return progs
}

func TestFactsMatchReference(t *testing.T) {
	progs := refPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := buildModel(t, name, progs[name])
		r := Analyze(m)
		want, iterations := refFacts(m)
		if r.Iterations != iterations {
			t.Errorf("%s: %d iterations, reference %d", name, r.Iterations, iterations)
		}
		for _, th := range m.Threads {
			reached := 0
			for _, f := range r.slots[th.ID].fact {
				if f != unreached {
					reached++
				}
			}
			if reached != len(want[th]) {
				t.Errorf("%s: %s reaches %d nodes, reference %d", name, th, reached, len(want[th]))
			}
			for nc, f := range want[th] {
				if got := r.fact(th, nc.ctx, nc.node); got == nil || !got.Equal(f) {
					t.Errorf("%s: I(%s, %s, %s) = %v, reference %v", name, th,
						m.Ctxs.String(nc.ctx), nc.node, got, f)
				}
			}
		}
	}
}

// TestMHPAfterCallAtDepthBound pins the return from a call made at the
// call-string depth bound: at depth 1, h's context under w is already at
// the bound, so the call g() pushes nothing and its return must go back
// to that same context. Otherwise the code after g() is never reached and
// its store reads as not parallel with main's store after the spawn.
func TestMHPAfterCallAtDepthBound(t *testing.T) {
	const src = `
int x;
int *ph; int *pm;
void g() {}
void h() { g(); ph = &x; }
void w(void *a) { h(); }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	pm = &x;
	join(t);
	return 0;
}
`
	for _, depth := range []int{1, 0} {
		m := buildModelDepth(t, "t.mc", src, depth)
		var inH, inMain *ir.Store
		for _, s := range m.Prog.Stmts {
			if st, ok := s.(*ir.Store); ok {
				switch ir.StmtFunc(st).Name {
				case "h":
					inH = st
				case "main":
					inMain = st
				}
			}
		}
		if inH == nil || inMain == nil {
			t.Fatalf("depth %d: stores not found", depth)
		}
		r := Analyze(m)
		if !r.MHPStmts(inH, inMain) {
			t.Errorf("depth %d: h's store after g() must be parallel with main's store after the spawn", depth)
		}
		want, _ := refFacts(m)
		for _, th := range m.Threads {
			for nc, f := range want[th] {
				if got := r.fact(th, nc.ctx, nc.node); got == nil || !got.Equal(f) {
					t.Errorf("depth %d: I(%s, %s, %s) = %v, reference %v", depth, th,
						m.Ctxs.String(nc.ctx), nc.node, got, f)
				}
			}
		}
	}
}
