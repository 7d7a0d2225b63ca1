package pipeline_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// compileSink keeps the benchmarked call's result alive.
var compileSink *ir.Program

// BenchmarkCompile times the frontend and irbuild (lexing, parsing,
// lowering, mem2reg and Finalize) on the two largest suite programs at
// scale 16, and reports the statements and variables of the result.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		b.Run(name, func(b *testing.B) {
			src, err := workload.Generate(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := pipeline.Compile(name+".mc", src)
				if err != nil {
					b.Fatal(err)
				}
				compileSink = prog
			}
			b.ReportMetric(float64(len(compileSink.Stmts)), "stmts/op")
			b.ReportMetric(float64(len(compileSink.Vars)), "vars/op")
		})
	}
}
