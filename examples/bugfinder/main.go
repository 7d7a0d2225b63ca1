// Bugfinder: run all three analysis clients the paper motivates — data-race
// detection, deadlock detection, and memory-leak detection — over one buggy
// producer/consumer program, through the checker suite's "race",
// "deadlock" and "leak" checkers.
//
// Run with: go run ./examples/bugfinder
package main

import (
	"fmt"
	"log"

	fsam "repro"
	"repro/internal/diag"
)

// The program contains all three bug classes:
//   - a data race on the shared counter (written without the lock),
//   - an AB-BA deadlock between mu and logmu,
//   - a leaked buffer (malloc'd, never freed, dropped at exit).
const buggy = `
int counter;
int *stats;
lock_t mu; lock_t logmu;

void producer(void *arg) {
	int *buf;
	buf = malloc();        // leaked: never freed, never published
	*buf = 1;
	lock(&mu);
	lock(&logmu);          // order: mu -> logmu
	stats = &counter;
	unlock(&logmu);
	unlock(&mu);
	counter = 1;           // race: unlocked write
}

void logger(void *arg) {
	lock(&logmu);
	lock(&mu);             // order: logmu -> mu  (deadlock with producer)
	stats = &counter;
	unlock(&mu);
	unlock(&logmu);
	counter = 2;           // race: unlocked write
}

int main() {
	thread_t p; thread_t l;
	p = spawn(producer, NULL);
	l = spawn(logger, NULL);
	join(p);
	join(l);
	return 0;
}
`

func main() {
	a, err := fsam.AnalyzeSource("buggy.mc", buggy, fsam.Config{})
	if err != nil {
		log.Fatal(err)
	}

	res, err := a.Diagnostics("race", "deadlock", "leak")
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range []struct{ id, title string }{
		{"race", "data races"},
		{"deadlock", "deadlocks"},
		{"leak", "memory leaks"},
	} {
		if reason, ok := res.Skipped[c.id]; ok {
			log.Fatalf("%s checker skipped: %s", c.id, reason)
		}
		var found []diag.Diagnostic
		for _, d := range res.Diags {
			if d.Checker == c.id {
				found = append(found, d)
			}
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s: %d candidate(s)\n", c.title, len(found))
		for _, d := range found {
			fmt.Printf("   line %d: %s\n", d.Line, d.Message)
		}
	}
}
