package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/exitcode"
)

// TestFlagSurface: fsambench binds the artifact selectors, -scale,
// -timeout, -json and the shared analysis options, and nothing else; the
// retired -incremental, -server and -cluster modes and their knobs are
// usage errors.
func TestFlagSurface(t *testing.T) {
	var help bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &help); code != exitcode.OK {
		t.Fatalf("-h exit %d, want %d", code, exitcode.OK)
	}
	n := 0
	for _, l := range strings.Split(help.String(), "\n") {
		if strings.HasPrefix(l, "  -") {
			n++
		}
	}
	if n != 15 {
		t.Errorf("fsambench binds %d flags, want 15:\n%s", n, help.String())
	}
	for _, args := range [][]string{
		{"-incremental"}, {"-scales", "4"}, {"-reps", "3"},
		{"-server", "http://x"}, {"-requests", "2"},
		{"-cluster"}, {"-replicas", "2"}, {"-traffic", "150"},
		{"-chaos", "error=0.1"}, {"-kill"}, {"-seed", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code != exitcode.Usage {
			t.Errorf("fsambench %s: exit %d, want %d", strings.Join(args, " "), code, exitcode.Usage)
		}
	}
}

// TestScaleBelowOneIsUsage: the generator would silently run scale 1, so
// a footer reading "scale 0" would misreport the run.
func TestScaleBelowOneIsUsage(t *testing.T) {
	for _, s := range []string{"0", "-3"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-table2", "-scale", s}, &stdout, &stderr)
		if code != exitcode.Usage || stdout.Len() != 0 || !strings.Contains(stderr.String(), "at least 1") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want usage error and no output",
				s, code, stdout.String(), stderr.String())
		}
	}
}

// TestStrayArgumentsAreUsage: fsambench takes no positional arguments, so
// stray ones are a usage error with no output, as in fsamd.
func TestStrayArgumentsAreUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-table1", "-scale", "1", "stray", "args"}, &stdout, &stderr)
	if code != exitcode.Usage || stdout.Len() != 0 || !strings.Contains(stderr.String(), "unexpected arguments") {
		t.Errorf("exit %d, stdout %q, stderr %q; want usage error and no output",
			code, stdout.String(), stderr.String())
	}
}
