package tmod_test

import (
	"testing"

	"repro/internal/escape"
	"repro/internal/pipeline"
	"repro/internal/tmod"
	"repro/internal/vfg"
	"repro/internal/workload"
)

// BenchmarkSolve times the thread-modular solve alone on the two largest
// suite programs, over the thread-oblivious def-use graph the tmod engine
// builds; the graph and the analyses behind it are built outside the timer.
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
			g := vfg.BuildWithOptions(b.Model, vfg.Options{ThreadOblivious: true})
			opt := tmod.Options{Escape: escape.Analyze(b.Model)}
			bm.ReportAllocs()
			bm.ResetTimer()
			var r *tmod.Result
			for i := 0; i < bm.N; i++ {
				r = tmod.Solve(b.Model, g, opt)
			}
			bm.ReportMetric(float64(len(g.Rep)), "logical/op")
			bm.ReportMetric(float64(len(g.Nodes)), "nodes/op")
			bm.ReportMetric(float64(r.Iterations), "pops/op")
			bm.ReportMetric(float64(r.Rounds), "rounds/op")
		})
	}
}
