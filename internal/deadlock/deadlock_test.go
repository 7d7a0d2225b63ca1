package deadlock_test

import (
	"fmt"
	"strings"
	"testing"

	fsam "repro"
)

// detect runs FSAM + the deadlock checker over src and renders each
// finding as "line N: message".
func detect(t *testing.T, src string) []string {
	t.Helper()
	a, err := fsam.AnalyzeSource("dl.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := a.Diagnostics("deadlock")
	if err != nil {
		t.Fatal(err)
	}
	if reason, ok := res.Skipped["deadlock"]; ok {
		t.Fatalf("deadlock checker skipped: %s", reason)
	}
	var out []string
	for _, d := range res.Diags {
		out = append(out, fmt.Sprintf("line %d: %s", d.Line, d.Message))
	}
	return out
}

// skipReason runs the deadlock checker over src under cfg and returns its
// skip reason (empty when it ran).
func skipReason(t *testing.T, src string, cfg fsam.Config) string {
	t.Helper()
	a, err := fsam.AnalyzeSource("x.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Diagnostics("deadlock")
	if err != nil {
		t.Fatal(err)
	}
	return res.Skipped["deadlock"]
}

func TestClassicABBA(t *testing.T) {
	reports := detect(t, `
lock_t la; lock_t lb;
int x;
void w1(void *arg) {
	lock(&la);
	lock(&lb);
	x = 1;
	unlock(&lb);
	unlock(&la);
}
void w2(void *arg) {
	lock(&lb);
	lock(&la);
	x = 2;
	unlock(&la);
	unlock(&lb);
}
int main() {
	thread_t t1; thread_t t2;
	t1 = spawn(w1, NULL);
	t2 = spawn(w2, NULL);
	join(t1);
	join(t2);
	return 0;
}
`)
	if len(reports) == 0 {
		t.Fatal("AB-BA deadlock not detected")
	}
}

func TestConsistentOrderNoDeadlock(t *testing.T) {
	reports := detect(t, `
lock_t la; lock_t lb;
int x;
void w1(void *arg) {
	lock(&la);
	lock(&lb);
	x = 1;
	unlock(&lb);
	unlock(&la);
}
void w2(void *arg) {
	lock(&la);
	lock(&lb);
	x = 2;
	unlock(&lb);
	unlock(&la);
}
int main() {
	thread_t t1; thread_t t2;
	t1 = spawn(w1, NULL);
	t2 = spawn(w2, NULL);
	join(t1);
	join(t2);
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("consistent lock order must be deadlock-free: %v", reports)
	}
}

func TestHBOrderedThreadsNoDeadlock(t *testing.T) {
	// Opposite lock orders, but the threads never overlap (join between).
	reports := detect(t, `
lock_t la; lock_t lb;
int x;
void w1(void *arg) {
	lock(&la);
	lock(&lb);
	x = 1;
	unlock(&lb);
	unlock(&la);
}
void w2(void *arg) {
	lock(&lb);
	lock(&la);
	x = 2;
	unlock(&la);
	unlock(&lb);
}
int main() {
	thread_t t1;
	t1 = spawn(w1, NULL);
	join(t1);
	thread_t t2;
	t2 = spawn(w2, NULL);
	join(t2);
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("serialized threads cannot deadlock: %v", reports)
	}
}

func TestThreeLockCycle(t *testing.T) {
	reports := detect(t, `
lock_t la; lock_t lb; lock_t lc;
int x;
void w1(void *arg) {
	lock(&la); lock(&lb); x = 1; unlock(&lb); unlock(&la);
}
void w2(void *arg) {
	lock(&lb); lock(&lc); x = 2; unlock(&lc); unlock(&lb);
}
void w3(void *arg) {
	lock(&lc); lock(&la); x = 3; unlock(&la); unlock(&lc);
}
int main() {
	thread_t t1; thread_t t2; thread_t t3;
	t1 = spawn(w1, NULL);
	t2 = spawn(w2, NULL);
	t3 = spawn(w3, NULL);
	join(t1);
	join(t2);
	join(t3);
	return 0;
}
`)
	if len(reports) == 0 {
		t.Fatal("3-lock cycle not detected")
	}
	// The cycle should mention all three locks.
	found := false
	for _, r := range reports {
		if len(r) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("empty report")
	}
}

func TestSelfParallelMultiForked(t *testing.T) {
	// A single routine with inconsistent internal order deadlocks against
	// another instance of itself when multi-forked... but a SINGLE routine
	// acquiring la→lb in all instances has a consistent order: no cycle.
	reports := detect(t, `
lock_t la; lock_t lb;
int x;
void w(void *arg) {
	lock(&la); lock(&lb); x = 1; unlock(&lb); unlock(&la);
}
int main() {
	int i;
	for (i = 0; i < 4; i++) {
		thread_t t;
		t = spawn(w, NULL);
	}
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("single consistent order across instances: %v", reports)
	}
}

func TestNestedSameLockIgnored(t *testing.T) {
	// Re-acquisition of the same lock is not a lock-order edge (it is a
	// self-deadlock for non-recursive mutexes, but not an order cycle).
	reports := detect(t, `
lock_t la;
int x;
void w(void *arg) {
	lock(&la);
	x = 1;
	unlock(&la);
}
int main() {
	thread_t t;
	t = spawn(w, NULL);
	lock(&la);
	x = 2;
	unlock(&la);
	join(t);
	return 0;
}
`)
	if len(reports) != 0 {
		t.Fatalf("single lock cannot form an order cycle: %v", reports)
	}
}

func TestDeadlocksRequireInterleaving(t *testing.T) {
	reason := skipReason(t, `int main() { return 0; }`, fsam.Config{NoInterleaving: true})
	if !strings.Contains(reason, "interleaving") {
		t.Errorf("deadlock skip reason = %q, want the interleaving analysis named", reason)
	}
}

func TestDeadlocksRequireLocks(t *testing.T) {
	reason := skipReason(t, `int main() { return 0; }`, fsam.Config{NoLock: true})
	if !strings.Contains(reason, "lock analysis") {
		t.Errorf("deadlock skip reason = %q, want the lock analysis named", reason)
	}
}
