package fsam_test

import (
	"testing"

	fsam "repro"
)

const baselineProg = `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void foo(void *arg) { *p = q; }
int main() {
	p = &x; q = &y; r = &z;
	thread_t t;
	t = spawn(foo, NULL);
	*p = r;
	c = *p;
	join(t);
	return 0;
}
`

// nonsparseCfg selects the NONSPARSE baseline with the ladder off, so a
// baseline failure fails the test instead of passing on a lower rung.
var nonsparseCfg = fsam.Config{Engine: "nonsparse", NoDegrade: true}

// analyzeBaseline runs the NONSPARSE baseline over baselineProg and checks
// it landed on its own engine.
func analyzeBaseline(t *testing.T) *fsam.Analysis {
	t.Helper()
	b, err := fsam.AnalyzeSource("t.mc", baselineProg, nonsparseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine != "nonsparse" || b.NS == nil || b.NS.OOT {
		t.Fatalf("engine = %q, NS = %v: want a converged nonsparse result", b.Engine, b.NS)
	}
	return b
}

func TestBaselineSoundOnFig1a(t *testing.T) {
	got, err := analyzeBaseline(t).PointsToGlobal("c")
	if err != nil {
		t.Fatal(err)
	}
	has := map[string]bool{}
	for _, n := range got {
		has[n] = true
	}
	if !has["y"] || !has["z"] {
		t.Errorf("baseline pt(c) = %v, want y and z", got)
	}
}

func TestBaselineStats(t *testing.T) {
	b := analyzeBaseline(t)
	if b.Stats.Stmts == 0 || b.Stats.Threads != 2 || b.Stats.Iterations == 0 || b.Stats.Bytes == 0 {
		t.Errorf("stats not populated: %+v", b.Stats)
	}
}

func TestBaselineUnknownGlobal(t *testing.T) {
	if _, err := analyzeBaseline(t).PointsToGlobal("nosuch"); err == nil {
		t.Error("expected error for unknown global")
	}
}

func TestBaselineParseError(t *testing.T) {
	if _, err := fsam.AnalyzeSource("bad.mc", "int main( {", nonsparseCfg); err == nil {
		t.Error("expected parse error")
	}
}

func TestFacadeParseError(t *testing.T) {
	if _, err := fsam.AnalyzeSource("bad.mc", "not a program", fsam.Config{}); err == nil {
		t.Error("expected parse error")
	}
}

func TestFacadeUnknownGlobal(t *testing.T) {
	a, err := fsam.AnalyzeSource("t.mc", "int main() { return 0; }", fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PointsToGlobal("missing"); err == nil {
		t.Error("expected error for unknown global")
	}
	if _, err := a.PointsToGlobalAnywhere("missing"); err == nil {
		t.Error("expected error for unknown global (anywhere)")
	}
	if _, err := a.AndersenPointsToGlobal("missing"); err == nil {
		t.Error("expected error for unknown global (andersen)")
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	a, err := fsam.AnalyzeSource("t.mc", baselineProg, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Total() <= 0 {
		t.Error("phase times must be positive")
	}
	if a.Stats.Phase("preanalysis") <= 0 {
		t.Error("pre-analysis time missing")
	}
}

func TestAblationConfigsProduceResults(t *testing.T) {
	for _, cfg := range []fsam.Config{
		{NoInterleaving: true},
		{NoValueFlow: true},
		{NoLock: true},
		{NoInterleaving: true, NoValueFlow: true, NoLock: true},
		{CtxDepth: 2},
	} {
		a, err := fsam.AnalyzeSource("t.mc", baselineProg, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got, err := a.PointsToGlobal("c")
		if err != nil {
			t.Fatal(err)
		}
		// Every ablation must still include the sound answer {y, z}.
		has := map[string]bool{}
		for _, n := range got {
			has[n] = true
		}
		if !has["y"] || !has["z"] {
			t.Errorf("%+v: pt(c) = %v, want ⊇ {y,z}", cfg, got)
		}
	}
}
