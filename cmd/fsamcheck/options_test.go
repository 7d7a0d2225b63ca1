package main

import (
	"bytes"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/exitcode"
)

// TestUnknownOptionValueExits2 pins the CLI contract for a misspelled
// analysis option: exit code 2 (usage) and the solver's Validate message
// listing every known value — the same text fsamd answers with a 400.
func TestUnknownOptionValueExits2(t *testing.T) {
	path := writeFile(t, t.TempDir(), "prog.mc", incrBaseSrc)
	for _, tc := range []struct {
		flag, value, noun string
		known             []string
	}{
		{"engine", "nope", "engine", fsam.Engines()},
		{"memmodel", "weird", "memory model", fsam.MemModels()},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-" + tc.flag, tc.value, path}, &stdout, &stderr)
		if code != exitcode.Usage {
			t.Errorf("-%s %s: exit code %d, want %d", tc.flag, tc.value, code, exitcode.Usage)
		}
		want := "unknown " + tc.noun + ` "` + tc.value + `" (known: ` + strings.Join(tc.known, ", ") + ")"
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s %s: stderr lacks %q:\n%s", tc.flag, tc.value, want, stderr.String())
		}
	}

	// Escape pruning is unconditional: the retired -escapeprune flag is a
	// usage error like any unknown flag.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-escapeprune", "off", path}, &stdout, &stderr); code != exitcode.Usage {
		t.Errorf("-escapeprune off: exit code %d, want %d\nstderr %s", code, exitcode.Usage, stderr.String())
	}
}
