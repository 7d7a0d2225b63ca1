package vfg

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestCompactGraphShape checks the compacted graph's invariants on the
// fixture corpus: store chis represent themselves, a representative
// represents itself, a collapsed node has no edges, and every edge
// connects representatives. The corpus must reach every outcome of the
// component resolution: always empty, collapsed into another node, and a
// copy node kept as the representative of a multi-input component.
func TestCompactGraphShape(t *testing.T) {
	empty, collapsed, copyReps := 0, 0, 0
	for _, p := range fixtures(t) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.FromSource(filepath.Base(p), string(src))
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildCtx(context.Background(), b.Model, optionSets[0].opt(b))
		if err != nil {
			t.Fatal(err)
		}
		isRep := func(id int) bool { return int(g.Rep[id]) == id }
		for id, n := range g.Nodes {
			r := int(g.Rep[id])
			switch {
			case n.Kind == MStoreChi && r != id:
				t.Fatalf("%s: store chi %s collapsed into %d", p, n, r)
			case r >= 0 && !isRep(r):
				t.Fatalf("%s: %s maps to %d, which is not a representative", p, n, r)
			case r >= 0 && g.Nodes[r].Obj != n.Obj:
				t.Fatalf("%s: %s maps to %s, another object", p, n, g.Nodes[r])
			case r != id && (len(g.Out[id]) > 0 || len(g.In[id]) > 0):
				t.Fatalf("%s: collapsed %s keeps edges", p, n)
			}
			switch {
			case r < 0:
				empty++
			case r != id:
				collapsed++
			case n.Kind != MStoreChi:
				copyReps++
			}
			for _, e := range g.Out[id] {
				if e.ToMem >= 0 && !isRep(e.ToMem) {
					t.Fatalf("%s: edge %s -> %s leaves the representatives", p, n, g.Nodes[e.ToMem])
				}
			}
		}
		for l, in := range g.LoadIn {
			for _, e := range in {
				if !isRep(e.ToMem) {
					t.Fatalf("%s: load %s reads collapsed %s", p, l, g.Nodes[e.ToMem])
				}
			}
		}
	}
	if empty == 0 || collapsed == 0 || copyReps == 0 {
		t.Errorf("corpus outcomes: %d empty, %d collapsed, %d copy representatives; want all > 0", empty, collapsed, copyReps)
	}
}

// BenchmarkBuildDefUse times the whole def-use build (memory SSA, fork
// bypass, compaction and [THREAD-VF]) on the two largest suite programs
// under the default pipeline's options; the analyses it consumes are built
// outside the timer.
func BenchmarkBuildDefUse(bm *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		bm.Run(name, func(bm *testing.B) {
			src, err := workload.Generate(name, 16)
			if err != nil {
				bm.Fatal(err)
			}
			b, err := pipeline.FromSource(name+".mc", src)
			if err != nil {
				bm.Fatal(err)
			}
			opt := optionSets[0].opt(b)
			bm.ReportAllocs()
			bm.ResetTimer()
			var g *Graph
			for i := 0; i < bm.N; i++ {
				if g, err = BuildCtx(context.Background(), b.Model, opt); err != nil {
					bm.Fatal(err)
				}
			}
			reps := 0
			for id, r := range g.Rep {
				if int(r) == id {
					reps++
				}
			}
			bm.ReportMetric(float64(len(g.Nodes)), "nodes/op")
			bm.ReportMetric(float64(reps), "representatives/op")
		})
	}
}
