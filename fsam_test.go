package fsam_test

import (
	"reflect"
	"testing"

	fsam "repro"
)

// run analyzes src with the default configuration.
func run(t *testing.T, src string) *fsam.Analysis {
	t.Helper()
	a, err := fsam.AnalyzeSource("test.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// ptOf queries the flow-sensitive points-to of a global at program exit.
func ptOf(t *testing.T, a *fsam.Analysis, name string) []string {
	t.Helper()
	got, err := a.PointsToGlobal(name)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func wantPts(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(want) == 0 {
		if len(got) != 0 {
			t.Errorf("points-to = %v, want empty", got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("points-to = %v, want %v", got, want)
	}
}

// TestFig1aInterleaving: c = *p can read values stored by the main thread
// (*p = r) or the parallel thread (*p = q): pt(c) = {y, z}.
func TestFig1aInterleaving(t *testing.T) {
	a := run(t, `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void foo(void *arg) {
	*p = q;
}
int main() {
	p = &x; q = &y; r = &z;
	thread_t t;
	t = spawn(foo, NULL);
	*p = r;
	c = *p;
	return 0;
}
`)
	wantPts(t, ptOf(t, a, "c"), "y", "z")
}

// TestFig1bSoundness: t2 outlives its spawner t1 (joined only via t1, which
// does not join it), so *p = r in main may interleave with t2's statements:
// pt(c) = {y, z}.
func TestFig1bSoundness(t *testing.T) {
	a := run(t, `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void bar(void *arg) {
	*p = q;
	c = *p;
}
void foo(void *arg) {
	thread_t t2;
	t2 = spawn(bar, NULL);
}
int main() {
	p = &x; q = &y; r = &z;
	thread_t t1;
	t1 = spawn(foo, NULL);
	join(t1);
	*p = r;
	c = *p;
	return 0;
}
`)
	// c is written in two threads; the union over all of c's definitions
	// must include both y and z.
	got, err := a.PointsToGlobalAnywhere("c")
	if err != nil {
		t.Fatal(err)
	}
	wantPts(t, got, "y", "z")
}

// TestFig1cPrecision: *p = r, *p = q, c = *p execute serially (fork
// directly followed by the body and a full join), so the strong update at
// *p = q kills z: pt(c) = {y}.
func TestFig1cPrecision(t *testing.T) {
	a := run(t, `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void foo(void *arg) {
	*p = q;
}
int main() {
	p = &x; q = &y; r = &z;
	*p = r;
	thread_t t;
	t = spawn(foo, NULL);
	join(t);
	c = *p;
	return 0;
}
`)
	wantPts(t, ptOf(t, a, "c"), "y")
}

// TestFig1dSparsity: *p and *x are not aliases, so the store *x = r must
// not pollute c = *p: pt(c) = {y}.
func TestFig1dSparsity(t *testing.T) {
	a := run(t, `
int y; int z; int a2;
int *x;
int **p;
int *c; int *r;
void foo(void *arg) {
	*x = r;
	*p = &y;   // the store c can observe
}
int main() {
	p = malloc();
	x = &a2;
	r = &z;
	*p = &a2;
	thread_t t;
	t = spawn(foo, NULL);
	c = *p;
	join(t);
	return 0;
}
`)
	got := ptOf(t, a, "c")
	for _, n := range got {
		if n == "z" {
			t.Errorf("pt(c) = %v: contains z from non-aliased *x = r", got)
		}
	}
}

// TestFig1eLockFiltering: the two critical sections are protected by the
// same lock; *p = u's value cannot reach c = *p because the store *p = q is
// the tail of its span and c = *p reads under the same mutex ordering:
// pt(c) must not contain v.
func TestFig1eLockFiltering(t *testing.T) {
	a := run(t, `
int x; int y; int z; int v;
int *p; int *q; int *r; int *u; int *c;
lock_t l1;
void foo(void *arg) {
	lock(&l1);
	*p = u;
	*p = q;
	unlock(&l1);
}
int main() {
	p = &x; q = &y; r = &z; u = &v;
	*p = r;
	thread_t t;
	t = spawn(foo, NULL);
	lock(&l1);
	c = *p;
	unlock(&l1);
	join(t);
	return 0;
}
`)
	got := ptOf(t, a, "c")
	has := map[string]bool{}
	for _, n := range got {
		has[n] = true
	}
	// Paper Figure 1(e): pt(c) = {y, z} — v is filtered by lock analysis
	// because *p = u is not the tail of its span.
	if !has["y"] || !has["z"] {
		t.Errorf("pt(c) = %v, must contain y and z", got)
	}
	if has["v"] {
		t.Errorf("pt(c) = %v: v must be filtered by the lock analysis", got)
	}
}

// TestFig1eNoLockAblation: with lock analysis disabled the spurious value v
// appears, demonstrating what the filter buys.
func TestFig1eNoLockAblation(t *testing.T) {
	src := `
int x; int y; int z; int v;
int *p; int *q; int *r; int *u; int *c;
lock_t l1;
void foo(void *arg) {
	lock(&l1);
	*p = u;
	*p = q;
	unlock(&l1);
}
int main() {
	p = &x; q = &y; r = &z; u = &v;
	*p = r;
	thread_t t;
	t = spawn(foo, NULL);
	lock(&l1);
	c = *p;
	unlock(&l1);
	join(t);
	return 0;
}
`
	a, err := fsam.AnalyzeSource("test.mc", src, fsam.Config{NoLock: true})
	if err != nil {
		t.Fatal(err)
	}
	got := ptOf(t, a, "c")
	has := map[string]bool{}
	for _, n := range got {
		has[n] = true
	}
	if !has["v"] {
		t.Errorf("pt(c) = %v: expected spurious v without lock analysis", got)
	}
}

// TestSequentialStrongUpdateChain checks flow-sensitive precision on purely
// sequential code: the second store kills the first.
func TestSequentialStrongUpdateChain(t *testing.T) {
	a := run(t, `
int x; int y; int z;
int *p; int *c;
int main() {
	p = &x;
	*p = &y;
	*p = &z;
	c = *p;
	return 0;
}
`)
	wantPts(t, ptOf(t, a, "c"), "z")
}

// TestAndersenIsUpperBound: the flow-sensitive result refines the
// pre-analysis (FSAM ⊆ Andersen) on every global.
func TestAndersenIsUpperBound(t *testing.T) {
	a := run(t, `
int x; int y; int z;
int *p; int *q; int *c;
void foo(void *arg) { *p = q; }
int main() {
	p = &x; q = &y;
	*p = &z;
	thread_t t;
	t = spawn(foo, NULL);
	c = *p;
	join(t);
	return 0;
}
`)
	for _, g := range []string{"p", "q", "c"} {
		fs, err := a.PointsToGlobal(g)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := a.AndersenPointsToGlobal(g)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, n := range fi {
			set[n] = true
		}
		for _, n := range fs {
			if !set[n] {
				t.Errorf("global %s: FS result %v exceeds Andersen %v", g, fs, fi)
			}
		}
	}
}

// TestStatsPopulated sanity-checks the run statistics.
func TestStatsPopulated(t *testing.T) {
	a := run(t, `
int x;
int *p;
void w(void *arg) { *p = &x; }
int main() {
	p = &x;
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	st := a.Stats
	if st.Threads != 2 {
		t.Errorf("threads = %d, want 2", st.Threads)
	}
	if st.DefUseEdges == 0 || st.Stmts == 0 || st.Bytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestEngineTable pins the fixed engine table: the ladder's rungs in
// strictly descending tier order, then the off-ladder nonsparse baseline.
// The removed thread-oblivious engine is rejected like any unknown name.
func TestEngineTable(t *testing.T) {
	if got, want := fsam.Engines(), []string{"fsam", "tmod", "cfgfree", "andersen", "nonsparse"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Engines() = %v, want %v", got, want)
	}
	if got, want := fsam.LadderEngines(), []string{"fsam", "tmod", "cfgfree", "andersen"}; !reflect.DeepEqual(got, want) {
		t.Errorf("LadderEngines() = %v, want %v", got, want)
	}
	tiers := fsam.LadderTiers()
	for i := 1; i < len(tiers); i++ {
		if tiers[i] >= tiers[i-1] {
			t.Errorf("ladder tiers %v not strictly descending at rung %d", tiers, i)
		}
	}
	if _, err := fsam.AnalyzeSource("test.mc", "int main() { return 0; }", fsam.Config{Engine: "oblivious"}); err == nil {
		t.Error(`Engine "oblivious" accepted, want unknown engine`)
	}
}
