package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStatsPrintsEveryPhase: -stats lists every phase that ran, in order,
// so a thread-modular run shows its compile, escape and tmod solve times
// (and the per-round / per-thread sub-phases).
func TestStatsPrintsEveryPhase(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fsam")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-engine", "tmod", "-stats", filepath.Join("..", "..", "testdata", "prodcons.mc")).Output()
	if err != nil {
		t.Fatalf("fsam -engine tmod -stats: %v\n%s", err, out)
	}
	var line string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "time:") {
			line = l
		}
	}
	last := -1
	for _, phase := range []string{" compile=", " preanalysis=", " escape=", " tmod=", " tmod.round1="} {
		i := strings.Index(line, phase)
		if i < 0 || i < last {
			t.Fatalf("time line %q lacks %q after the phases before it", line, phase)
		}
		last = i
	}
}
