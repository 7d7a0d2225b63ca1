package fsam_test

// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family exists per table/figure:
//
//	BenchmarkTable1Stats          — Table 1 (program statistics pipeline)
//	BenchmarkTable2/<p>/FSAM      — Table 2, FSAM column
//	BenchmarkTable2/<p>/NonSparse — Table 2, NONSPARSE column
//	BenchmarkFigure12/<p>/<cfg>   — Figure 12 ablations
//
// plus per-phase benchmarks (pre-analysis, thread model, interleaving,
// locks, def-use, sparse solve) used as ablation evidence for the design
// choices called out in DESIGN.md. Benchmarks run at a reduced scale so
// `go test -bench=.` completes quickly; use cmd/fsambench for the
// full-scale tables.

import (
	"context"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/harness"
	"repro/internal/icfg"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pipeline"
	"repro/internal/threads"
	"repro/internal/workload"
)

// benchScale keeps `go test -bench` fast; cmd/fsambench uses DefaultScale.
const benchScale = 1

// nsBenchTimeout bounds each baseline measurement.
const nsBenchTimeout = 30 * time.Second

func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable1(benchScale)
		if len(rows) != 10 {
			b.Fatal("expected 10 rows")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, spec := range workload.Suite {
		spec := spec
		src := workload.GenerateSpec(spec, benchScale)
		b.Run(spec.Name+"/FSAM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := pipeline.Compile(spec.Name, src)
				if err != nil {
					b.Fatal(err)
				}
				a := fsam.AnalyzeProgram(prog, fsam.Config{})
				b.ReportMetric(float64(a.Stats.Bytes), "pts-bytes")
				b.ReportMetric(float64(a.Stats.UniqueSets), "unique-sets")
				b.ReportMetric(a.Stats.DedupRatio, "dedup-ratio")
			}
		})
		b.Run(spec.Name+"/NonSparse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := pipeline.Compile(spec.Name, src)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), nsBenchTimeout)
				r, err := fsam.AnalyzeProgramCtx(ctx, prog, nonsparseCfg)
				cancel()
				if pipeline.ErrCancelled(err) {
					b.Skip("baseline exceeded bench deadline at this scale")
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Stats.Bytes), "pts-bytes")
				b.ReportMetric(float64(r.Stats.UniqueSets), "unique-sets")
				b.ReportMetric(r.Stats.DedupRatio, "dedup-ratio")
			}
		})
	}
}

func BenchmarkFigure12(b *testing.B) {
	configs := append([]harness.Fig12Config{{Label: "Full", Cfg: fsam.Config{}}},
		harness.Fig12Configs...)
	for _, spec := range workload.Suite {
		for _, c := range configs {
			spec, c := spec, c
			src := workload.GenerateSpec(spec, benchScale)
			b.Run(spec.Name+"/"+c.Label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					prog, err := pipeline.Compile(spec.Name, src)
					if err != nil {
						b.Fatal(err)
					}
					a := fsam.AnalyzeProgram(prog, c.Cfg)
					b.ReportMetric(float64(a.Stats.ThreadEdges), "thread-edges")
				}
			})
		}
	}
}

// ---- Per-phase ablation benchmarks (DESIGN.md section 5) ----

// compileBench builds the substrate, thread model included, that a phase
// benchmark runs on.
func compileBench(b *testing.B, name string, scale int) *pipeline.Base {
	b.Helper()
	src := workload.GenerateSpec(mustSpec(name), scale)
	prog, err := pipeline.Compile(name, src)
	if err != nil {
		b.Fatal(err)
	}
	return pipeline.BuildBase(prog, 0)
}

func mustSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("unknown spec " + name)
	}
	return s
}

func BenchmarkPhaseAndersen(b *testing.B) {
	src := workload.GenerateSpec(mustSpec("bodytrack"), benchScale)
	prog, err := pipeline.Compile("bodytrack", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := andersen.Analyze(prog)
		b.ReportMetric(float64(r.Iterations), "iters")
	}
}

func BenchmarkPhaseCallGraphAndICFG(b *testing.B) {
	src := workload.GenerateSpec(mustSpec("bodytrack"), benchScale)
	prog, err := pipeline.Compile("bodytrack", src)
	if err != nil {
		b.Fatal(err)
	}
	pre := andersen.Analyze(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := callgraph.Build(pre)
		g := icfg.Build(cg)
		nodes, edges := g.Stats()
		b.ReportMetric(float64(nodes+edges), "nodes+edges")
	}
}

func BenchmarkPhaseThreadModel(b *testing.B) {
	src := workload.GenerateSpec(mustSpec("x264"), benchScale)
	prog, err := pipeline.Compile("x264", src)
	if err != nil {
		b.Fatal(err)
	}
	pre := andersen.Analyze(prog)
	cg := callgraph.Build(pre)
	g := icfg.Build(cg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := threads.BuildModel(pre, cg, g, callgraph.NewCtxs(0))
		b.ReportMetric(float64(len(m.Threads)), "threads")
	}
}

// The interference phases run on radiosity@16, the lock-heavy suite
// program (132 spans): at benchScale both finish in microseconds and show
// nothing.
const interferenceBench, interferenceScale = "radiosity", 16

func BenchmarkPhaseInterleaving(b *testing.B) {
	base := compileBench(b, interferenceBench, interferenceScale)
	b.ReportAllocs()
	b.ResetTimer()
	var r *mhp.Result
	for i := 0; i < b.N; i++ {
		r = mhp.Analyze(base.Model)
	}
	b.ReportMetric(float64(r.Iterations), "iters/op")
}

func BenchmarkPhaseLockSpans(b *testing.B) {
	base := compileBench(b, interferenceBench, interferenceScale)
	b.ReportAllocs()
	b.ResetTimer()
	var r *locks.Result
	for i := 0; i < b.N; i++ {
		r = locks.Analyze(base.Model)
	}
	b.ReportMetric(float64(r.NumSpans()), "spans/op")
}

func BenchmarkPhaseSparseSolve(b *testing.B) {
	src := workload.GenerateSpec(mustSpec("raytrace"), benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := pipeline.Compile("raytrace", src)
		if err != nil {
			b.Fatal(err)
		}
		a := fsam.AnalyzeProgram(prog, fsam.Config{})
		b.ReportMetric(float64(a.Stats.Iterations), "iters")
	}
}

// BenchmarkContextDepth measures the cost of deeper call-string contexts
// (an ablation over the context-sensitivity design choice).
func BenchmarkContextDepth(b *testing.B) {
	src := workload.GenerateSpec(mustSpec("raytrace"), benchScale)
	for _, depth := range []int{2, 8, 32} {
		depth := depth
		b.Run(map[int]string{2: "k2", 8: "k8", 32: "k32"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := pipeline.Compile("raytrace", src)
				if err != nil {
					b.Fatal(err)
				}
				a := fsam.AnalyzeProgram(prog, fsam.Config{CtxDepth: depth})
				b.ReportMetric(float64(a.Stats.DefUseEdges), "edges")
			}
		})
	}
}
