package race_test

import (
	"fmt"
	"strings"
	"testing"

	fsam "repro"
)

// detect runs FSAM + the race checker over src and renders each finding
// as "line N: message".
func detect(t *testing.T, src string) []string {
	t.Helper()
	a, err := fsam.AnalyzeSource("race.mc", src, fsam.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := a.Diagnostics("race")
	if err != nil {
		t.Fatal(err)
	}
	if reason, ok := res.Skipped["race"]; ok {
		t.Fatalf("race checker skipped: %s", reason)
	}
	var out []string
	for _, d := range res.Diags {
		out = append(out, fmt.Sprintf("line %d: %s", d.Line, d.Message))
	}
	return out
}

// hasRaceOn reports whether some report mentions the object name.
func hasRaceOn(reports []string, obj string) bool {
	for _, r := range reports {
		if strings.Contains(r, "race on "+obj+":") {
			return true
		}
	}
	return false
}

func TestUnprotectedSharedWriteIsRace(t *testing.T) {
	reports := detect(t, `
int counter;
int *cp;
void worker(void *arg) {
	*cp = 1;
}
int main() {
	cp = &counter;
	thread_t t;
	t = spawn(worker, NULL);
	*cp = 2;
	join(t);
	return 0;
}
`)
	if !hasRaceOn(reports, "counter") {
		t.Errorf("expected race on counter, got %v", reports)
	}
}

func TestLockProtectedIsNotRace(t *testing.T) {
	reports := detect(t, `
int counter;
int *cp;
lock_t m;
void worker(void *arg) {
	lock(&m);
	*cp = 1;
	unlock(&m);
}
int main() {
	cp = &counter;
	thread_t t;
	t = spawn(worker, NULL);
	lock(&m);
	*cp = 2;
	unlock(&m);
	join(t);
	return 0;
}
`)
	if hasRaceOn(reports, "counter") {
		t.Errorf("lock-protected accesses must not race: %v", reports)
	}
}

func TestDifferentLocksStillRace(t *testing.T) {
	reports := detect(t, `
int counter;
int *cp;
lock_t m1; lock_t m2;
void worker(void *arg) {
	lock(&m1);
	*cp = 1;
	unlock(&m1);
}
int main() {
	cp = &counter;
	thread_t t;
	t = spawn(worker, NULL);
	lock(&m2);
	*cp = 2;
	unlock(&m2);
	join(t);
	return 0;
}
`)
	if !hasRaceOn(reports, "counter") {
		t.Errorf("different locks must not suppress the race: %v", reports)
	}
}

func TestJoinOrderingSuppressesRace(t *testing.T) {
	reports := detect(t, `
int counter;
int *cp;
void worker(void *arg) {
	*cp = 1;
}
int main() {
	cp = &counter;
	thread_t t;
	t = spawn(worker, NULL);
	join(t);
	*cp = 2;
	return 0;
}
`)
	if hasRaceOn(reports, "counter") {
		t.Errorf("accesses ordered by join must not race: %v", reports)
	}
}

func TestNonAliasedAccessesNoRace(t *testing.T) {
	reports := detect(t, `
int a; int b;
int *pa; int *pb;
void worker(void *arg) {
	*pa = 1;
}
int main() {
	pa = &a;
	pb = &b;
	thread_t t;
	t = spawn(worker, NULL);
	*pb = 2;
	join(t);
	return 0;
}
`)
	if hasRaceOn(reports, "a") || hasRaceOn(reports, "b") {
		t.Errorf("non-aliased accesses must not race: %v", reports)
	}
}

func TestStoreLoadRace(t *testing.T) {
	reports := detect(t, `
int shared;
int *sp2;
int sink;
void reader(void *arg) {
	sink = *sp2;
}
int main() {
	sp2 = &shared;
	thread_t t;
	t = spawn(reader, NULL);
	*sp2 = 7;
	join(t);
	return 0;
}
`)
	if !hasRaceOn(reports, "shared") {
		t.Errorf("store-load pair should race: %v", reports)
	}
}

func TestDeterministicOrder(t *testing.T) {
	src := `
int x; int y;
int *p; int *q;
void w(void *arg) { *p = 1; *q = 2; }
int main() {
	p = &x; q = &y;
	thread_t t;
	t = spawn(w, NULL);
	*p = 3;
	*q = 4;
	join(t);
	return 0;
}
`
	a := detect(t, src)
	b := detect(t, src)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Error("reports are not deterministic")
	}
	if len(a) == 0 {
		t.Error("expected some races")
	}
}

func TestRacesRequireInterleaving(t *testing.T) {
	an, err := fsam.AnalyzeSource("x.mc", `int main() { return 0; }`, fsam.Config{NoInterleaving: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Diagnostics("race")
	if err != nil {
		t.Fatal(err)
	}
	if reason := res.Skipped["race"]; !strings.Contains(reason, "interleaving") {
		t.Errorf("race skip reason = %q, want the interleaving analysis named", reason)
	}
}
