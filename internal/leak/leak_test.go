package leak_test

import (
	"fmt"
	"testing"

	fsam "repro"
	"repro/internal/leak"
)

// detect runs FSAM + the leak checker over src and renders each finding
// as "line N: message".
func detect(t *testing.T, src string) []string {
	t.Helper()
	a, err := fsam.AnalyzeSource("leak.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := a.Diagnostics("leak")
	if err != nil {
		t.Fatal(err)
	}
	if reason, ok := res.Skipped["leak"]; ok {
		t.Fatalf("leak checker skipped: %s", reason)
	}
	var out []string
	for _, d := range res.Diags {
		out = append(out, fmt.Sprintf("line %d: %s", d.Line, d.Message))
	}
	return out
}

func TestDroppedAllocationLeaks(t *testing.T) {
	reports := detect(t, `
int main() {
	int *p;
	p = malloc();
	*p = 1;
	p = NULL;
	return 0;
}
`)
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want 1 leak", reports)
	}
}

func TestFreedAllocationDoesNotLeak(t *testing.T) {
	reports := detect(t, `
int main() {
	int *p;
	p = malloc();
	*p = 1;
	free(p);
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("freed allocation reported: %v", reports)
	}
}

func TestConditionalFreeLeaks(t *testing.T) {
	reports := detect(t, `
int cond;
int main() {
	int *p;
	p = malloc();
	if (cond > 0) {
		free(p);
	}
	return 0;
}
`)
	if len(reports) != 1 {
		t.Fatalf("conditionally freed allocation must be a candidate: %v", reports)
	}
}

func TestFreeOnBothBranches(t *testing.T) {
	reports := detect(t, `
int cond;
int main() {
	int *p;
	p = malloc();
	if (cond > 0) {
		free(p);
	} else {
		*p = 1;
		free(p);
	}
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("freed on every path: %v", reports)
	}
}

func TestGloballyReachableDoesNotLeak(t *testing.T) {
	reports := detect(t, `
int *cache;
int main() {
	cache = malloc();
	*cache = 1;
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("globally reachable allocation reported: %v", reports)
	}
}

func TestReachableThroughChain(t *testing.T) {
	// Global → heap node → second heap node: both reachable.
	reports := detect(t, `
struct Node { struct Node *next; int v; };
struct Node *head;
int main() {
	head = malloc();
	struct Node *second;
	second = malloc();
	head->next = second;
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("chain-reachable allocations reported: %v", reports)
	}
}

func TestOverwrittenGlobalLeaks(t *testing.T) {
	// The first allocation is overwritten in the global: lost.
	reports := detect(t, `
int *cache;
int main() {
	cache = malloc();   // lost
	cache = malloc();   // kept
	return 0;
}
`)
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want exactly the first allocation", reports)
	}
}

func TestAmbiguousFreeIsNotMustFree(t *testing.T) {
	// free(p) where p may be either of two allocations frees neither for
	// sure.
	reports := detect(t, `
int cond;
int main() {
	int *a; int *b2; int *p;
	a = malloc();
	b2 = malloc();
	if (cond > 0) { p = a; } else { p = b2; }
	free(p);
	return 0;
}
`)
	if len(reports) != 2 {
		t.Fatalf("ambiguous free must leave both candidates: %v", reports)
	}
}

func TestLoopAllocationWithFree(t *testing.T) {
	reports := detect(t, `
int main() {
	int i;
	for (i = 0; i < 4; i++) {
		int *p;
		p = malloc();
		*p = i;
		free(p);
	}
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("freed loop allocation reported: %v", reports)
	}
}

func TestThreadLocalAllocationLeaks(t *testing.T) {
	reports := detect(t, `
void w(void *arg) {
	int *p;
	p = malloc();
	*p = 1;
}
int main() {
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	if len(reports) != 1 {
		t.Fatalf("thread-local dropped allocation must leak: %v", reports)
	}
}

func TestAuditExposesBothConditions(t *testing.T) {
	a, err := fsam.AnalyzeSource("leak.mc", `
int *keep;
int main() {
	keep = malloc();
	int *drop;
	drop = malloc();
	free(drop);
	return 0;
}
`, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := &leak.Detector{Prog: a.Prog, Points: a.Result, Reachable: a.Base.CG.Reachable}
	audit := d.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit entries = %d, want 2", len(audit))
	}
	if !audit[0].ReachableAtExit || audit[0].MustFreed {
		t.Errorf("first allocation: %+v", audit[0])
	}
	if !audit[1].MustFreed || audit[1].ReachableAtExit {
		t.Errorf("second allocation: %+v", audit[1])
	}
}
