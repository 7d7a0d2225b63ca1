// Quickstart: analyze a small multithreaded MiniC program with FSAM and
// query flow-sensitive points-to results.
//
// The program is the paper's Figure 1(a): a thread's store *p = q may
// interleave with the main thread's *p = r, so c = *p sees both y and z.
// Changing the fork into fork+join before the load (Figure 1(c)) would
// shrink the answer to {y} thanks to the strong update.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	fsam "repro"
)

const program = `
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
	join(t);
	return 0;
}
`

func main() {
	a, err := fsam.AnalyzeSource("fig1a.mc", program, fsam.Config{})
	if err != nil {
		log.Fatal(err)
	}

	for _, g := range []string{"p", "q", "r", "c"} {
		pt, err := a.PointsToGlobal(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pt(%s) = {%s}\n", g, strings.Join(pt, ", "))
	}

	st := a.Stats
	fmt.Printf("\n%d statements, %d abstract threads, %d def-use edges "+
		"(%d thread-aware), solved in %s\n",
		st.Stmts, st.Threads, st.DefUseEdges, st.ThreadEdges, st.Total())

	// Compare with the flow-insensitive pre-analysis to see what
	// flow-sensitivity buys.
	fi, _ := a.AndersenPointsToGlobal("c")
	fmt.Printf("Andersen pt(c) = {%s} (flow-insensitive upper bound)\n",
		strings.Join(fi, ", "))
}
