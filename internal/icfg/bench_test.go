package icfg_test

import (
	"testing"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/icfg"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// buildSink keeps the benchmarked call's result alive.
var buildSink *icfg.Graph

// BenchmarkBuild times the call graph and ICFG construction on the two
// largest suite programs at scale 16 and reports the graph's size. The
// pre-analysis runs once, outside the timer; neither build mutates it.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		b.Run(name, func(b *testing.B) {
			src, err := workload.Generate(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := pipeline.Compile(name+".mc", src)
			if err != nil {
				b.Fatal(err)
			}
			pre := andersen.Analyze(prog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildSink = icfg.Build(callgraph.Build(pre))
			}
			nodes, edges := buildSink.Stats()
			b.ReportMetric(float64(nodes), "nodes/op")
			b.ReportMetric(float64(edges), "edges/op")
		})
	}
}
