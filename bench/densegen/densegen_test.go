package densegen

import (
	"runtime/debug"
	"strings"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/pipeline"
)

func TestDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if Generate(seed) != Generate(seed) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if Generate(1) == Generate(2) {
		t.Fatal("seeds 1 and 2 generate the same program")
	}
}

func TestParamsWithinCaps(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		p := ParamsFor(seed)
		in := func(v, lo, hi int) bool { return lo <= v && v <= hi }
		if !in(p.SpawnSites, MinSpawnSites, MaxSpawnSites) || !in(p.LockGroups, MinLockGroups, MaxLockGroups) ||
			!in(p.Cells, MinCells, MaxCells) || !in(p.Targets, MinTargets, MaxTargets) {
			t.Fatalf("seed %d: %+v outside the caps", seed, p)
		}
	}
}

func TestProgramsCompile(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		src := Generate(seed)
		if _, err := pipeline.Compile("dense.mc", src); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := strings.Count(src, "spawn("), ParamsFor(seed).SpawnSites; got != want {
			t.Fatalf("seed %d: %d spawn sites, want %d", seed, got, want)
		}
	}
}

// TestThreadDense pins the regime the workload exists for: thread-aware
// def-use edges at least five times the thread-oblivious ones, at a cost
// that stays well inside the benchmark's budget.
func TestThreadDense(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes three thread-dense programs")
	}
	for seed := int64(1); seed <= 3; seed++ {
		t0 := time.Now()
		a, err := fsam.AnalyzeSource("dense.mc", Generate(seed), fsam.Config{})
		elapsed := time.Since(t0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Precision != fsam.PrecisionSparseFS {
			t.Fatalf("seed %d: precision %s", seed, a.Precision)
		}
		st := a.Stats
		if st.ThreadEdges < 5*st.ObliviousEdges {
			t.Errorf("seed %d: %d thread-aware edges, want at least 5x the %d thread-oblivious ones",
				seed, st.ThreadEdges, st.ObliviousEdges)
		}
		if elapsed > 2*time.Second && !raceEnabled() {
			t.Errorf("seed %d: analysis took %s, want under 2s", seed, elapsed)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, which
// slows the analysis several times over.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
