package workload_test

import (
	"context"
	"strings"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestAllBenchmarksCompile parses, lowers and analyzes every generated
// benchmark at scale 1.
func TestAllBenchmarksCompile(t *testing.T) {
	for _, spec := range workload.Suite {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			src := workload.GenerateSpec(spec, 1)
			prog, err := pipeline.Compile(spec.Name+".mc", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			a := fsam.AnalyzeProgram(prog, fsam.Config{})
			if a.Stats.Threads < 2 {
				t.Errorf("threads = %d, want >= 2", a.Stats.Threads)
			}
			if a.Stats.DefUseEdges == 0 {
				t.Error("no def-use edges")
			}
		})
	}
}

// TestDeterministic verifies byte-identical regeneration.
func TestDeterministic(t *testing.T) {
	for _, spec := range workload.Suite {
		a := workload.GenerateSpec(spec, 2)
		b := workload.GenerateSpec(spec, 2)
		if a != b {
			t.Errorf("%s: generation is not deterministic", spec.Name)
		}
	}
}

// TestRelativeSizes checks that generated sizes preserve the paper's
// ordering (monotone in PaperLOC).
func TestRelativeSizes(t *testing.T) {
	prev := 0
	prevName := ""
	for _, spec := range workload.Suite {
		loc := workload.LOC(workload.GenerateSpec(spec, 1))
		t.Logf("%-14s paper=%6d gen=%5d", spec.Name, spec.PaperLOC, loc)
		if spec.PaperLOC > 20000 && loc < prev && prev > 0 {
			t.Errorf("%s (gen %d) smaller than %s (gen %d) despite larger paper LOC",
				spec.Name, loc, prevName, prev)
		}
		prev, prevName = loc, spec.Name
	}
}

// TestScaleGrows verifies the scale knob grows programs.
func TestScaleGrows(t *testing.T) {
	s1 := workload.LOC(workload.GenerateSpec(workload.Suite[0], 1))
	s3 := workload.LOC(workload.GenerateSpec(workload.Suite[0], 3))
	if s3 <= s1 {
		t.Errorf("scale 3 LOC %d <= scale 1 LOC %d", s3, s1)
	}
}

// TestUnknownBenchmark pins the error path: fsamd surfaces this message
// verbatim as its 404 body, so both the wording and the quoted name are
// part of the contract.
func TestUnknownBenchmark(t *testing.T) {
	_, err := workload.Generate("nope", 1)
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if got := err.Error(); !strings.Contains(got, `unknown benchmark "nope"`) {
		t.Errorf("error %q does not name the unknown benchmark", got)
	}
	// A known name at any positive scale must not error.
	if _, err := workload.Generate("word_count", 1); err != nil {
		t.Errorf("known benchmark errored: %v", err)
	}
}

// TestNonSparseRunsOnSmallest sanity-checks the baseline on word_count.
func TestNonSparseRunsOnSmallest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src, _ := workload.Generate("word_count", 1)
	prog, err := pipeline.Compile("word_count.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := fsam.AnalyzeProgramCtx(ctx, prog, fsam.Config{Engine: "nonsparse", NoDegrade: true}); err != nil {
		t.Fatalf("NonSparse on smallest benchmark: %v", err)
	}
}
