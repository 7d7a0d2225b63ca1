package facts_test

import (
	"strings"
	"testing"

	"repro/internal/facts"
	"repro/internal/frontend/parser"
)

func snap(t *testing.T, cfg, src string) *facts.Snapshot {
	t.Helper()
	f, err := parser.ParseChecked("t.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return facts.SnapshotFile(cfg, f)
}

const factsBase = `
int g; int h;
int *p;

void worker(void *arg) {
	if (g > 3) { p = &g; } else { p = &h; }
}

int main() {
	thread_t t;
	p = &g;
	t = spawn(worker, NULL);
	join(t);
	return 0;
}
`

func TestSnapshotPositionFree(t *testing.T) {
	a := snap(t, "c", factsBase)
	// Comments and whitespace shift every position but no token.
	edited := strings.Replace(factsBase, "int main() {", "/* a comment */\n\n\nint main() {", 1)
	b := snap(t, "c", edited)
	if a.ProgKey != b.ProgKey {
		t.Fatalf("whitespace/comment edit changed ProgKey: %s vs %s", a.ProgKey, b.ProgKey)
	}
	for i := range a.Funcs {
		if a.Funcs[i].Key != b.Funcs[i].Key {
			t.Fatalf("func %s key changed on comment edit", a.Funcs[i].Name)
		}
	}
}

func TestSnapshotSensitivity(t *testing.T) {
	a := snap(t, "c", factsBase)

	// Body edit changes only that function's key (plus ProgKey).
	b := snap(t, "c", strings.Replace(factsBase, "g > 3", "g > 4", 1))
	if a.ProgKey == b.ProgKey {
		t.Fatalf("constant edit did not change ProgKey")
	}
	if a.ByName["worker"].Key == b.ByName["worker"].Key {
		t.Fatalf("constant edit did not change worker key")
	}
	if a.ByName["main"].Key != b.ByName["main"].Key {
		t.Fatalf("constant edit in worker changed main key")
	}

	// Config salt separates otherwise-identical programs.
	c := snap(t, "other-cfg", factsBase)
	if a.ProgKey == c.ProgKey || a.ByName["main"].Key == c.ByName["main"].Key {
		t.Fatalf("config salt not applied")
	}

	// A signature change in a callee invalidates the caller.
	d := snap(t, "c", strings.Replace(factsBase, "void worker(void *arg)", "int worker(void *arg)", 1))
	if a.ByName["main"].Key == d.ByName["main"].Key {
		t.Fatalf("callee signature change did not invalidate caller")
	}

	// A global declaration change moves ProgKey but not function keys
	// (function facts only depend on bodies + callee signatures).
	e := snap(t, "c", strings.Replace(factsBase, "int g; int h;", "int g; int h; int z;", 1))
	if a.ProgKey == e.ProgKey {
		t.Fatalf("global add did not change ProgKey")
	}
}

func TestDiff(t *testing.T) {
	a := snap(t, "c", factsBase)
	b := snap(t, "c", strings.Replace(factsBase, "g > 3", "g > 4", 1))
	d := a.Diff(b)
	if len(d.Changed) != 1 || d.Changed[0] != "worker" {
		t.Fatalf("changed = %v, want [worker]", d.Changed)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("removed = %v, want []", d.Removed)
	}
	if len(d.Same) != 1 || d.Same[0] != "main" {
		t.Fatalf("same = %v, want [main]", d.Same)
	}

	// Removing a function shows up as removed.
	noWorker := strings.Replace(factsBase,
		"void worker(void *arg) {\n\tif (g > 3) { p = &g; } else { p = &h; }\n}\n", "", 1)
	noWorker = strings.Replace(noWorker, "t = spawn(worker, NULL);\n\tjoin(t);\n", "", 1)
	c := snap(t, "c", noWorker)
	d2 := a.Diff(c)
	found := false
	for _, n := range d2.Removed {
		if n == "worker" {
			found = true
		}
	}
	if !found {
		t.Fatalf("removed = %v, want worker included", d2.Removed)
	}
}
