package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/locks"
	"repro/internal/pipeline"
	"repro/internal/vfg"
	"repro/internal/workload"
)

// BenchmarkSolve times the sparse solve alone on the two largest suite
// programs, over the def-use graph the default pipeline builds; the graph
// and the analyses behind it are built outside the timer.
func BenchmarkSolve(bm *testing.B) {
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
			g := vfg.BuildWithOptions(b.Model, vfg.Options{
				Interleave: b.Interleavings(),
				Locks:      locks.Analyze(b.Model),
				Escape:     escape.Analyze(b.Model),
			})
			bm.ReportAllocs()
			bm.ResetTimer()
			var r *core.Result
			for i := 0; i < bm.N; i++ {
				r = core.Solve(b.Model, g)
			}
			bm.ReportMetric(float64(len(g.Rep)), "logical/op")
			bm.ReportMetric(float64(len(g.Nodes)), "nodes/op")
			bm.ReportMetric(float64(r.Iterations), "pops/op")
		})
	}
}
