package icfg_test

import (
	"fmt"
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	g := build(t, `
void w(void *a) { }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	var sb strings.Builder
	if err := g.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cluster_main") || !strings.Contains(out, "cluster_w") {
		t.Error("function clusters missing")
	}
	if !strings.Contains(out, "color=red") {
		t.Error("fork edges should render red")
	}
}

// TestWriteDotDeterministic: separate builds of one multi-function program
// render identical bytes and order every node's in-edges identically, so
// neither the cluster order nor the interprocedural edge order depends on
// map iteration.
func TestWriteDotDeterministic(t *testing.T) {
	const src = `
int x; int y;
int *p;
void *fp;
void a() { p = &x; }
void b() { p = &y; a(); }
void c(void *arg) { a(); b(); }
int main() {
	if (x > 0) { fp = a; } else { fp = b; }
	fp();
	a();
	b();
	thread_t t;
	t = spawn(c, NULL);
	join(t);
	return 0;
}
`
	render := func() string {
		g := build(t, src)
		var sb strings.Builder
		if err := g.WriteDot(&sb); err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			fmt.Fprintf(&sb, "in n%d:", n.ID)
			for _, e := range n.In {
				fmt.Fprintf(&sb, " n%d/%s", e.From.ID, e.Kind)
			}
			sb.WriteString("\n")
		}
		return sb.String()
	}
	want := render()
	for i := 1; i < 20; i++ {
		if got := render(); got != want {
			t.Fatalf("build %d renders differently:\n%s\n--- first build ---\n%s", i, got, want)
		}
	}
}
