package andersen_test

import (
	"testing"

	"repro/internal/andersen"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// analyzeSink keeps the benchmarked call's result alive.
var analyzeSink *andersen.Result

// BenchmarkAnalyze times the pre-analysis alone on the two largest suite
// programs at scale 16 and reports its work: worklist pops and the
// pointer-equivalence classes solved. Solving materializes field objects
// into the program, so every iteration compiles a fresh copy outside the
// timer.
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		b.Run(name, func(b *testing.B) {
			src, err := workload.Generate(name, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, err := pipeline.Compile(name+".mc", src)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				analyzeSink = andersen.Analyze(prog)
			}
			b.ReportMetric(float64(analyzeSink.Pops), "pops/op")
			b.ReportMetric(float64(analyzeSink.Classes), "classes/op")
		})
	}
}
