package fsam_test

import (
	"sync"
	"testing"

	fsam "repro"
	"repro/internal/ir"
	"repro/internal/workload"
)

// TestAnalysisConcurrentReaders hammers one completed Analysis from many
// goroutines, the access pattern of the fsamd service: a cached Analysis is
// shared by every request that hits it, so all query methods must be safe
// for concurrent readers. radiosity exercises the lock analysis (the
// Span.Head/Tail memoization) and the race/leak/deadlock clients behind
// their sync.Once memos; run under -race this test is the guard.
func TestAnalysisConcurrentReaders(t *testing.T) {
	src, err := workload.Generate("radiosity", 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	a, err := fsam.AnalyzeSource("radiosity.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.Precision != fsam.PrecisionSparseFS {
		t.Fatalf("precision = %s, want sparse-fs", a.Precision)
	}

	var globals []string
	for _, o := range a.Prog.Objects {
		if o.Kind == ir.ObjGlobal {
			globals = append(globals, o.Name)
		}
	}
	if len(globals) == 0 {
		t.Fatal("no globals in workload")
	}

	const readers = 8
	const rounds = 4
	var wg sync.WaitGroup

	// First-call results, to compare against what concurrent readers see:
	// memoized clients must hand every caller the same reports.
	wantRaces, err := a.Races()
	if err != nil {
		t.Fatalf("races: %v", err)
	}
	wantLeaks := a.Leaks()

	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, name := range globals {
					if _, err := a.PointsToGlobal(name); err != nil {
						errs <- err
						return
					}
					if _, err := a.PointsToGlobalAnywhere(name); err != nil {
						errs <- err
						return
					}
					if _, err := a.AndersenPointsToGlobal(name); err != nil {
						errs <- err
						return
					}
				}
				races, err := a.Races()
				if err != nil {
					errs <- err
					return
				}
				if len(races) != len(wantRaces) {
					t.Errorf("reader %d: %d races, want %d", g, len(races), len(wantRaces))
					return
				}
				if got := a.Leaks(); len(got) != len(wantLeaks) {
					t.Errorf("reader %d: %d leaks, want %d", g, len(got), len(wantLeaks))
					return
				}
				a.LeakAudit()
				if _, err := a.Deadlocks(); err != nil {
					errs <- err
					return
				}
				_ = a.Stats.Total()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reader: %v", err)
	}
}

// TestConfigNormalize pins the canonicalization contract shared by the
// CLIs and the service cache key.
func TestConfigNormalize(t *testing.T) {
	zero := fsam.Config{}.Normalize()
	if zero.CtxDepth <= 0 {
		t.Fatalf("Normalize left CtxDepth=%d", zero.CtxDepth)
	}
	explicit := fsam.Config{CtxDepth: zero.CtxDepth, StepLimit: -5}.Normalize()
	if explicit.StepLimit != 0 {
		t.Fatalf("Normalize left StepLimit=%d", explicit.StepLimit)
	}
	if (fsam.Config{}).Canonical() != explicit.Canonical() {
		t.Fatalf("default and explicit-default configs render differently:\n%s\n%s",
			(fsam.Config{}).Canonical(), explicit.Canonical())
	}
	if (fsam.Config{}).Canonical() == (fsam.Config{NoLock: true}).Canonical() {
		t.Fatal("distinct configs share a canonical key")
	}
}
