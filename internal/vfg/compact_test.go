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
// fixture corpus, reading each logical node off the uncompacted graph,
// which stores every logical node under its own ID: a store chi represents
// itself, Rep never maps a logical node to a node of another object, every
// physical node is the image of a logical ID, and Out, In and LoadIn name
// physical IDs only. The corpus must reach every outcome of the component
// resolution: always empty, collapsed into another node, and a copy node
// kept as the representative of a multi-input component.
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
		opt := optionSets[0].opt(b)
		gb, err := buildSequential(context.Background(), b.Model, opt, true)
		if err == nil {
			err = gb.buildThreadAware()
		}
		if err != nil {
			t.Fatal(err)
		}
		g, full := gb.g, BuildUncompacted(b.Model, opt)
		if len(g.Rep) != len(full.Rep) {
			t.Fatalf("%s: %d logical nodes, uncompacted %d", p, len(g.Rep), len(full.Rep))
		}
		phys := len(g.Nodes)
		if len(g.Out) != phys || len(g.In) != phys || len(gb.logOf) != phys {
			t.Fatalf("%s: %d nodes, %d out rows, %d in rows, %d logical back-links", p, phys, len(g.Out), len(g.In), len(gb.logOf))
		}
		physical := func(id int) bool { return id >= 0 && id < phys }
		imaged := make([]bool, phys)
		for id, r := range g.Rep {
			logical := full.Nodes[id]
			own := r >= 0 && int(gb.logOf[r]) == id
			switch {
			case logical.Kind == MStoreChi && !own:
				t.Fatalf("%s: store chi %s collapsed into %d", p, logical, r)
			case r < 0:
				empty++
				continue
			case !physical(int(r)):
				t.Fatalf("%s: %s maps to %d, not a physical node", p, logical, r)
			case g.Nodes[r].Obj != logical.Obj:
				t.Fatalf("%s: %s maps to %s, another object", p, logical, g.Nodes[r])
			case !own:
				collapsed++
			case logical.Kind != MStoreChi && logical.Kind != MHub:
				copyReps++
			}
			imaged[r] = true
		}
		for id, n := range g.Nodes {
			switch {
			case n.ID != id:
				t.Fatalf("%s: node %d carries ID %d", p, id, n.ID)
			case !imaged[id]:
				t.Fatalf("%s: %s is the image of no logical ID", p, n)
			}
			for _, e := range g.Out[id] {
				if e.ToMem >= 0 && !physical(e.ToMem) || e.ToMem < 0 && e.ToLoad == nil {
					t.Fatalf("%s: edge %s -> %d leaves the physical nodes", p, n, e.ToMem)
				}
			}
			for _, s := range g.In[id] {
				if !physical(s) {
					t.Fatalf("%s: %s has in-edge from %d, not a physical node", p, n, s)
				}
			}
		}
		for l, in := range g.LoadIn {
			for _, e := range in {
				if !physical(e.ToMem) {
					t.Fatalf("%s: load %s reads %d, not a physical node", p, l, e.ToMem)
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
// outside the timer. It reports the logical nodes construction created and
// the physical nodes the graph stores.
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
			bm.ReportMetric(float64(len(g.Rep)), "logical/op")
			bm.ReportMetric(float64(len(g.Nodes)), "nodes/op")
		})
	}
}
