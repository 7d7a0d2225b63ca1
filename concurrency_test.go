package fsam_test

import (
	"flag"
	"fmt"
	"net/url"
	"reflect"
	"sync"
	"testing"

	fsam "repro"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/workload"
)

// TestAnalysisConcurrentReaders hammers one completed Analysis from many
// goroutines, the access pattern of the fsamd service: a cached Analysis is
// shared by every request that hits it, so all query methods must be safe
// for concurrent readers. radiosity exercises the lock analysis (the
// Span.Head/Tail memoization) and the checker suite behind its sync.Once
// memo; run under -race this test is the guard.
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
	// the memoized checker suite must hand every caller the same findings.
	counts := func(ids ...string) (int, error) {
		res, err := a.Diagnostics(ids...)
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			if reason, ok := res.Skipped[id]; ok {
				return 0, fmt.Errorf("%s checker skipped: %s", id, reason)
			}
		}
		return len(res.Diags), nil
	}
	wantRaces, err := counts("race")
	if err != nil {
		t.Fatalf("races: %v", err)
	}
	wantLeaks, err := counts("leak")
	if err != nil {
		t.Fatalf("leaks: %v", err)
	}

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
				races, err := counts("race")
				if err != nil {
					errs <- err
					return
				}
				if races != wantRaces {
					t.Errorf("reader %d: %d races, want %d", g, races, wantRaces)
					return
				}
				leaks, err := counts("leak")
				if err != nil {
					errs <- err
					return
				}
				if leaks != wantLeaks {
					t.Errorf("reader %d: %d leaks, want %d", g, leaks, wantLeaks)
					return
				}
				if _, err := counts("deadlock"); err != nil {
					errs <- err
					return
				}
				if _, err := a.Diagnostics(); err != nil {
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

	// Canonical must render every field: a field it skips would alias two
	// configurations in the service cache and the facts snapshots.
	def := (fsam.Config{}).Canonical()
	typ := reflect.TypeOf(fsam.Config{})
	for i := 0; i < typ.NumField(); i++ {
		var c fsam.Config
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("nondefault")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1 << 20)
		case reflect.Uint64:
			f.SetUint(1 << 20)
		default:
			t.Fatalf("Config.%s: no non-default value for kind %s", typ.Field(i).Name, f.Kind())
		}
		if c.Canonical() == def {
			t.Errorf("Config.%s does not reach Canonical()", typ.Field(i).Name)
		}
	}

	// Every option round-trips: a CLI flag and an fsamd query parameter
	// carrying the same value yield the same canonical configuration.
	samples := map[string]string{
		"engine": "tmod", "memmodel": "tso",
		"no-interleaving": "true", "no-valueflow": "true", "no-lock": "true",
		"membudget": "4096", "steplimit": "100",
	}
	for _, name := range solver.OptionNames() {
		v, ok := samples[name]
		if !ok {
			t.Errorf("option %q has no round-trip sample", name)
			continue
		}
		arg := "-" + name + "=" + v
		if v == "true" {
			arg = "-" + name // bool flags take no value on the command line
		}
		var fromFlag fsam.Config
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fromFlag.RegisterFlags(fs)
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatalf("flag %s: %v", arg, err)
		}
		req, err := server.DecodeAnalyze([]byte(`{}`), url.Values{name: {v}})
		if err != nil {
			t.Fatalf("query %s=%s: %v", name, v, err)
		}
		if got, want := req.Config.Canonical(), fromFlag.Canonical(); got != want || got == def {
			t.Errorf("option %s=%s: query gives %q, flag gives %q (default %q)", name, v, got, want, def)
		}
	}
	if len(samples) != len(solver.OptionNames()) {
		t.Errorf("%d round-trip samples for %d options %v", len(samples), len(solver.OptionNames()), solver.OptionNames())
	}
}
