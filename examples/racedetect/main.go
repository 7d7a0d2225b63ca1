// Race detection: use FSAM's interference analyses to find data races in a
// small producer/consumer program, then show that adding a mutex silences
// the reports — the paper's motivating client (Section 1). Findings come
// from the checker suite's "race" checker, the same one fsamcheck and
// fsamd's /v1/diagnostics run.
//
// Run with: go run ./examples/racedetect
package main

import (
	"fmt"
	"log"

	fsam "repro"
)

const racy = `
int items[8];
int *head;
int count;

void producer(void *arg) {
	head = &count;      // unprotected write to head
	*head = *head + 1;  // unprotected read-modify-write of count
}

int main() {
	head = &count;
	thread_t prod;
	prod = spawn(producer, NULL);
	*head = 0;          // races with the producer's accesses
	int snapshot;
	snapshot = *head;   // racy read
	join(prod);
	return 0;
}
`

const fixed = `
int items[8];
int *head;
int count;
lock_t m;

void producer(void *arg) {
	lock(&m);
	head = &count;
	*head = *head + 1;
	unlock(&m);
}

int main() {
	head = &count;
	thread_t prod;
	prod = spawn(producer, NULL);
	lock(&m);
	*head = 0;
	int snapshot;
	snapshot = *head;
	unlock(&m);
	join(prod);
	return 0;
}
`

func report(name, src string) int {
	a, err := fsam.AnalyzeSource(name, src, fsam.Config{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.Diagnostics("race")
	if err != nil {
		log.Fatal(err)
	}
	if reason, ok := res.Skipped["race"]; ok {
		log.Fatalf("%s: race checker skipped: %s", name, reason)
	}
	fmt.Printf("== %s: %d candidate race(s)\n", name, len(res.Diags))
	for _, d := range res.Diags {
		fmt.Printf("   line %d: %s\n", d.Line, d.Message)
	}
	return len(res.Diags)
}

func main() {
	before := report("racy.mc", racy)
	after := report("fixed.mc", fixed)
	fmt.Printf("\nadding the mutex removed %d report(s); %d remain\n",
		before-after, after)
}
