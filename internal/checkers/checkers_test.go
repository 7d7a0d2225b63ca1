package checkers_test

// The checker registry and the individual checkers, driven through the
// facade over small inline programs (the external test package avoids the
// repro -> checkers import cycle).

import (
	"errors"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/checkers"
	"repro/internal/diag"
)

func analyze(t *testing.T, src string) *fsam.Analysis {
	t.Helper()
	a, err := fsam.AnalyzeSource("test.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.Precision != fsam.PrecisionSparseFS {
		t.Fatalf("precision %s, want full (%s)", a.Precision, a.Stats.Degraded)
	}
	return a
}

// byChecker groups finalized diagnostics by checker ID.
func byChecker(diags []diag.Diagnostic) map[string][]diag.Diagnostic {
	out := map[string][]diag.Diagnostic{}
	for _, d := range diags {
		out[d.Checker] = append(out[d.Checker], d)
	}
	return out
}

func TestRegistry(t *testing.T) {
	want := []string{"race", "deadlock", "leak", "uaf", "doublefree", "pthread",
		"racypub", "localonlylock", "unsyncshared", "escapeleak"}
	got := checkers.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("IDs()[%d] = %q, want %q", i, got[i], id)
		}
		c := checkers.ByID(id)
		if c == nil || c.ID != id {
			t.Fatalf("ByID(%q) = %v", id, c)
		}
		r := c.Rule()
		if r.ID != id || r.Name == "" || r.Doc == "" {
			t.Fatalf("Rule(%q) incomplete: %+v", id, r)
		}
	}
	if checkers.ByID("nope") != nil {
		t.Fatal("ByID(nope) != nil")
	}
	if len(checkers.Rules()) != len(want) {
		t.Fatalf("Rules() = %d rules, want %d", len(checkers.Rules()), len(want))
	}
	if len(checkers.Rules("uaf", "race")) != 2 {
		t.Fatal("Rules(uaf, race) != 2 rules")
	}
}

func TestRunUnknownChecker(t *testing.T) {
	_, err := checkers.Run(&checkers.Facts{}, "nope")
	if !errors.Is(err, checkers.ErrUnknownChecker) {
		t.Fatalf("Run(nope) err = %v, want ErrUnknownChecker", err)
	}
}

// TestRunDegradedFactsSkipsAll: an empty Facts bundle (nothing available)
// must skip every checker with a reason, not panic or report.
func TestRunDegradedFactsSkipsAll(t *testing.T) {
	res, err := checkers.Run(&checkers.Facts{PrecisionNote: "Andersen-only: budget"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("degraded run reported %d diagnostics", len(res.Diags))
	}
	for _, id := range checkers.IDs() {
		if res.Skipped[id] == "" {
			t.Errorf("checker %s not skipped on empty facts", id)
		}
	}
}

func TestSequentialUseAfterFree(t *testing.T) {
	a := analyze(t, `
int main() {
	int *p;
	p = malloc(4);
	*p = 1;
	free(p);
	*p = 2;
	return 0;
}
`)
	res, err := a.Diagnostics("uaf")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("uaf diags = %d, want 1: %+v", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if !strings.Contains(d.Message, "after free(p)") || strings.Contains(d.Message, "concurrently") {
		t.Fatalf("want sequential UAF message, got %q", d.Message)
	}
	if d.Line != 7 {
		t.Fatalf("uaf line = %d, want 7 (the use)", d.Line)
	}
	if len(d.Related) != 1 || d.Related[0].Line != 6 {
		t.Fatalf("related = %+v, want the free at line 6", d.Related)
	}
}

func TestCrossThreadUseAfterFree(t *testing.T) {
	a := analyze(t, `
int *buf;
int sink;
void worker(void *arg) {
	sink = *buf;
}
int main() {
	thread_t t;
	buf = malloc(4);
	t = spawn(worker, NULL);
	free(buf);
	join(t);
	return 0;
}
`)
	res, err := a.Diagnostics("uaf")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("uaf diags = %d, want 1: %+v", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if !strings.Contains(d.Message, "concurrently") {
		t.Fatalf("want concurrent UAF message, got %q", d.Message)
	}
	if len(d.Threads) != 2 {
		t.Fatalf("concurrent UAF wants a two-thread witness, got %v", d.Threads)
	}
}

func TestDoubleFree(t *testing.T) {
	a := analyze(t, `
int main() {
	int *p;
	p = malloc(4);
	free(p);
	free(p);
	return 0;
}
`)
	res, err := a.Diagnostics("doublefree")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("doublefree diags = %d, want 1: %+v", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if d.Line != 6 || len(d.Related) != 1 || d.Related[0].Line != 5 {
		t.Fatalf("double free should anchor the second free (line 6) and relate the first (5): %+v", d)
	}
}

// TestSingleFreeInLoopNotDoubleFree: one free site executed repeatedly is
// not reported (the checker pairs distinct statements only).
func TestSingleFreeInLoopNotDoubleFree(t *testing.T) {
	a := analyze(t, `
int main() {
	int *p;
	int i;
	i = 0;
	while (i < 2) {
		p = malloc(4);
		free(p);
		i = i + 1;
	}
	return 0;
}
`)
	res, err := a.Diagnostics("doublefree")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("loop single-free flagged: %+v", res.Diags)
	}
}

func TestDoubleLock(t *testing.T) {
	a := analyze(t, `
lock_t m;
int x;
int main() {
	lock(&m);
	lock(&m);
	x = 1;
	unlock(&m);
	return 0;
}
`)
	res, err := a.Diagnostics("pthread")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	var found bool
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "double lock of m") && d.Line == 6 {
			found = true
			if len(d.Related) != 1 || d.Related[0].Line != 5 {
				t.Fatalf("double lock should relate the first acquisition at 5: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no double-lock finding in %+v", res.Diags)
	}
}

func TestUnlockWithoutLock(t *testing.T) {
	a := analyze(t, `
lock_t m;
int main() {
	unlock(&m);
	return 0;
}
`)
	res, err := a.Diagnostics("pthread")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 1 || !strings.Contains(res.Diags[0].Message, "without a matching lock") {
		t.Fatalf("want one unlock-without-lock finding, got %+v", res.Diags)
	}
}

// TestPairedLockUnlockClean: a well-formed critical section produces no
// pthread findings.
func TestPairedLockUnlockClean(t *testing.T) {
	a := analyze(t, `
lock_t m;
int x;
int main() {
	lock(&m);
	x = 1;
	unlock(&m);
	return 0;
}
`)
	res, err := a.Diagnostics("pthread")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("clean lock/unlock flagged: %+v", res.Diags)
	}
}

func TestSelfJoin(t *testing.T) {
	a := analyze(t, `
thread_t t;
void worker(void *arg) {
	join(t);
}
int main() {
	t = spawn(worker, NULL);
	join(t);
	return 0;
}
`)
	res, err := a.Diagnostics("pthread")
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	var found bool
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "may join itself") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no self-join finding in %+v", res.Diags)
	}
}

// TestSubsetFingerprintsMatchFullRun: requesting one checker must return
// the same fingerprints the full suite assigns (the suite is memoized and
// filtered, never re-finalized).
func TestSubsetFingerprintsMatchFullRun(t *testing.T) {
	a := analyze(t, `
int main() {
	int *p;
	p = malloc(4);
	free(p);
	*p = 2;
	return 0;
}
`)
	full, err := a.Diagnostics()
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	sub, err := a.Diagnostics("uaf")
	if err != nil {
		t.Fatalf("subset: %v", err)
	}
	fullUAF := byChecker(full.Diags)["uaf"]
	if len(fullUAF) != len(sub.Diags) {
		t.Fatalf("subset returned %d uaf diags, full run had %d", len(sub.Diags), len(fullUAF))
	}
	for i := range sub.Diags {
		if sub.Diags[i].Fingerprint != fullUAF[i].Fingerprint {
			t.Fatalf("fingerprint drift between subset and full run: %q vs %q",
				sub.Diags[i].Fingerprint, fullUAF[i].Fingerprint)
		}
	}
}

func TestUnknownCheckerViaFacade(t *testing.T) {
	a := analyze(t, `int main() { return 0; }`)
	if _, err := a.Diagnostics("bogus"); !errors.Is(err, checkers.ErrUnknownChecker) {
		t.Fatalf("err = %v, want ErrUnknownChecker", err)
	}
}

// TestRaceDetectorEscapeKnob: the shared race-detector constructor prunes
// with the escape oracle in Facts.Escape. (The detector's unpruned
// reference is its own nil-Escape path, compared in internal/race.)
func TestRaceDetectorEscapeKnob(t *testing.T) {
	a := analyze(t, `
int counter;
int local;
int *cp;
void worker(void *arg) {
	*cp = 1;
}
int main() {
	cp = &counter;
	thread_t t;
	t = spawn(worker, NULL);
	*cp = 2;
	local = 3;
	join(t);
	return 0;
}
`)
	f := &checkers.Facts{Prog: a.Prog, Model: a.Base.Model, MHP: a.MHP, Locks: a.Locks,
		Points: a.Result, Pre: a.Base.Pre, Escape: a.EscapeResult()}
	on := f.RaceDetector()
	if on.Escape == nil || on.Escape != f.Escape {
		t.Fatal("RaceDetector ignores Facts.Escape")
	}
	if len(on.Detect()) == 0 {
		t.Fatal("pruned detector misses the race on counter")
	}
}
