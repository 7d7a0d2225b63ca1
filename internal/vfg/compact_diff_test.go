package vfg_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/randprog"
	"repro/internal/threads"
	"repro/internal/tmod"
	"repro/internal/vfg"
	"repro/internal/workload"
)

// solved is the query surface core.Result and tmod.Result share.
type solved interface {
	PointsToVar(*ir.Var) *pts.Set
	PointsToMem(int) *pts.Set
	ObjAtExit(*ir.Function, *ir.Object) *pts.Set
	InternStats() *engine.RefStats
}

// engines are the solvers over the def-use graph: the full sparse solve,
// and the sparse and thread-modular solves over the thread-oblivious graph
// (the graph the thread-modular engine slices per thread).
var engines = []struct {
	name      string
	oblivious bool
	solve     func(*threads.Model, *vfg.Graph, vfg.Options) solved
}{
	{"fsam", false, func(m *threads.Model, g *vfg.Graph, _ vfg.Options) solved { return core.Solve(m, g) }},
	{"oblivious", true, func(m *threads.Model, g *vfg.Graph, _ vfg.Options) solved { return core.Solve(m, g) }},
	{"tmod", true, func(m *threads.Model, g *vfg.Graph, opt vfg.Options) solved {
		return tmod.Solve(m, g, tmod.Options{Sequential: true, Escape: opt.Escape})
	}},
}

// solvedSummary renders everything a client can observe of a solve over g:
// the set of every logical node (hubs included), every variable and every global at main's
// exit, the interning counts and the edge counters.
func solvedSummary(prog *ir.Program, g *vfg.Graph, r solved) string {
	var sb strings.Builder
	for id := range g.Rep {
		fmt.Fprintf(&sb, "node %d %s\n", id, r.PointsToMem(id))
	}
	for _, v := range prog.Vars {
		fmt.Fprintf(&sb, "var %s %s\n", v.Name, r.PointsToVar(v))
	}
	for _, o := range prog.Objects {
		if o.Kind == ir.ObjGlobal {
			fmt.Fprintf(&sb, "global %s %s\n", o.Name, r.ObjAtExit(prog.Main, o))
		}
	}
	rs := r.InternStats()
	fmt.Fprintf(&sb, "intern refs=%d unique=%d\n", rs.Refs, rs.Unique)
	fmt.Fprintf(&sb, "edges oblivious=%d thread=%d stored=%d hubs=%d\n", g.ObliviousEdges, g.ThreadEdges, g.StoredThreadEdges, g.ThreadHubs)
	return sb.String()
}

// duplicateEdge names an edge g holds twice, or returns "". Construction
// dedups the thread-oblivious edges, a direct thread-aware edge is dropped
// when it repeats a constructed one, and a hub is linked once to each of
// its inputs and targets, so an uncompacted graph holds each edge once.
func duplicateEdge(g *vfg.Graph) string {
	type key struct {
		from, to int
		load     *ir.Load
		ungated  bool
	}
	seen := map[key]bool{}
	for from, outs := range g.Out {
		for _, e := range outs {
			k := key{from: from, to: e.ToMem, load: e.ToLoad, ungated: e.Ungated}
			if seen[k] {
				return fmt.Sprintf("%s -> %d/%v ungated=%v", g.Nodes[from], e.ToMem, e.ToLoad, e.Ungated)
			}
			seen[k] = true
		}
	}
	return ""
}

// firstDiff returns the first differing line of two summaries.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  compact:     %s\n  uncompacted: %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(g), len(w))
}

// checkCompaction solves src on the compacted and the uncompacted graph
// under every option set and engine and requires identical answers. It
// returns the logical and physical node counts of the default
// configuration's fsam graph.
func checkCompaction(t *testing.T, name, src string) (nodes, reps int) {
	t.Helper()
	b, err := pipeline.FromSource(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for si, set := range vfg.OptionSets(b) {
		for _, eng := range engines {
			opt := set.Opt
			opt.ThreadOblivious = eng.oblivious
			where := fmt.Sprintf("%s/%s/%s", name, set.Name, eng.name)
			compact, err := vfg.BuildCtx(context.Background(), b.Model, opt)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			full := vfg.BuildUncompacted(b.Model, opt)
			if len(compact.Rep) != len(full.Rep) || len(full.Rep) != len(full.Nodes) {
				t.Fatalf("%s: %d logical nodes, uncompacted %d logical and %d physical", where, len(compact.Rep), len(full.Rep), len(full.Nodes))
			}
			if n := full.NumEdges(); n != full.ObliviousEdges+full.StoredThreadEdges {
				t.Fatalf("%s: uncompacted graph holds %d edges, counters say %d+%d", where, n, full.ObliviousEdges, full.StoredThreadEdges)
			}
			if dup := duplicateEdge(full); dup != "" {
				t.Fatalf("%s: uncompacted graph holds %s twice", where, dup)
			}
			if n := compact.NumEdges(); n > compact.ObliviousEdges+compact.StoredThreadEdges {
				t.Fatalf("%s: compact graph holds %d edges, counters say %d+%d", where, n, compact.ObliviousEdges, compact.StoredThreadEdges)
			}
			got := solvedSummary(b.Prog, compact, eng.solve(b.Model, compact, opt))
			want := solvedSummary(b.Prog, full, eng.solve(b.Model, full, opt))
			if got != want {
				t.Fatalf("%s: compaction changed the result\n%s", where, firstDiff(got, want))
			}
			if si == 0 && !eng.oblivious {
				nodes, reps = len(compact.Rep), len(compact.Nodes)
			}
		}
	}
	return nodes, reps
}

func TestCompactionMatchesUncompactedCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	nodes, reps := 0, 0
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		n, r := checkCompaction(t, filepath.Base(p), string(src))
		nodes, reps = nodes+n, reps+r
	}
	if reps >= nodes {
		t.Errorf("compaction kept all %d nodes of the corpus", nodes)
	}
}

func TestCompactionMatchesUncompactedSuite(t *testing.T) {
	for _, spec := range workload.Suite {
		checkCompaction(t, spec.Name, workload.GenerateSpec(spec, 1))
	}
}

func TestCompactionMatchesUncompactedRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkCompaction(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3))
	}
}
