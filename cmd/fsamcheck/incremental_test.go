package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
)

// newDaemon starts an in-process fsamd and returns its base URL.
func newDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// incrBaseSrc has one known data race (unsynchronized g), so baselines are
// non-trivial.
const incrBaseSrc = `int g;
int *p;
void worker(void *arg) {
	g = 2;
	p = &g;
}
int main() {
	thread_t t;
	t = spawn(worker, NULL);
	g = 1;
	join(t);
	return 0;
}
`

func writeFile(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCheck drives the CLI entry point and returns (exit code, stdout).
func runCheck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("fsamcheck %s -> %d\nstderr: %s", strings.Join(args, " "), code, stderr.String())
	return code, stdout.String()
}

// TestIncrementalBaselineCheckIdentical is the -incremental contract: with
// a recorded baseline, `-baseline check` over an edited program produces
// byte-identical stdout (and the same exit code) whether the edit is
// analyzed from scratch or incrementally against the base program —
// across the tier a constant tweak lands in (iso) and the tier a new
// statement forces (semantic), and across output formats.
func TestIncrementalBaselineCheckIdentical(t *testing.T) {
	dir := t.TempDir()
	// The editor-loop layout: prog.mc is baselined, then edited in place;
	// base.mc keeps the pre-edit text for -incremental to delta against.
	progPath := writeFile(t, dir, "prog.mc", incrBaseSrc)
	basePath := writeFile(t, dir, "base.mc", incrBaseSrc)
	baseline := filepath.Join(dir, "fsamcheck.baseline")

	if code, _ := runCheck(t, "-baseline", "write", "-baseline-file", baseline, progPath); code != 0 {
		t.Fatalf("baseline write: exit %d", code)
	}

	edits := map[string]string{
		// Comment-only edit that moves no line (noop tier): the adopted
		// analysis must still report under the edited file's name. It
		// moves no line because race messages embed spawn lines, so a
		// from-scratch run of a line-moving edit fingerprints the race
		// differently from the baseline while the noop tier keeps the
		// base's lines.
		"noop": strings.Replace(incrBaseSrc, "int g;", "int g; /* edited */", 1),
		// Constant tweak: same pointer structure (iso tier).
		"iso": strings.Replace(incrBaseSrc, "g = 2;", "g = 7;", 1),
		// New unsynchronized global: a new race the baseline does not know
		// (semantic tier).
		"semantic": strings.Replace(
			strings.Replace(incrBaseSrc, "int g;", "int g;\nint h;", 1),
			"g = 1;", "g = 1;\n\th = 1;", 1),
	}

	for tier, src := range edits {
		writeFile(t, dir, "prog.mc", src)
		for _, format := range []string{"text", "json"} {
			scratchCode, scratchOut := runCheck(t,
				"-format", format, "-baseline", "check", "-baseline-file", baseline, progPath)
			incrCode, incrOut := runCheck(t,
				"-incremental", basePath, "-format", format,
				"-baseline", "check", "-baseline-file", baseline, progPath)
			if scratchCode != incrCode {
				t.Errorf("%s/%s: exit codes differ: scratch %d, incremental %d",
					tier, format, scratchCode, incrCode)
			}
			if scratchOut != incrOut {
				t.Errorf("%s/%s: output differs\n--- from scratch ---\n%s--- incremental ---\n%s",
					tier, format, scratchOut, incrOut)
			}
		}
	}

	// The semantic edit must surface its new race through the baseline.
	writeFile(t, dir, "prog.mc", edits["semantic"])
	code, out := runCheck(t,
		"-incremental", basePath, "-baseline", "check", "-baseline-file", baseline, progPath)
	if code == 0 || !strings.Contains(out, "h") {
		t.Errorf("semantic edit's new race not reported: exit %d\n%s", code, out)
	}
	// The iso edit changes no findings: the baseline hides everything.
	writeFile(t, dir, "prog.mc", edits["iso"])
	if code, out := runCheck(t,
		"-incremental", basePath, "-baseline", "check", "-baseline-file", baseline, progPath); code != 0 {
		t.Errorf("iso edit reported findings past the baseline: exit %d\n%s", code, out)
	}
}

// TestIncrementalPlainOutputIdentical covers the no-baseline path: full
// finding output of an edited program is byte-identical from scratch and
// incrementally.
func TestIncrementalPlainOutputIdentical(t *testing.T) {
	dir := t.TempDir()
	basePath := writeFile(t, dir, "prog.mc", incrBaseSrc)
	editDir := filepath.Join(dir, "edited")
	if err := os.Mkdir(editDir, 0o755); err != nil {
		t.Fatal(err)
	}
	editedPath := writeFile(t, editDir, "prog.mc",
		strings.Replace(incrBaseSrc, "g = 2;", "g = 9;", 1))

	scratchCode, scratchOut := runCheck(t, editedPath)
	incrCode, incrOut := runCheck(t, "-incremental", basePath, editedPath)
	if scratchCode != incrCode || scratchOut != incrOut {
		t.Errorf("outputs differ (exit %d vs %d)\n--- from scratch ---\n%s--- incremental ---\n%s",
			scratchCode, incrCode, scratchOut, incrOut)
	}
	if !strings.Contains(scratchOut, "race") {
		t.Errorf("expected a race finding, got:\n%s", scratchOut)
	}
}

// TestIncrementalServed routes the same flow through a live fsamd: the
// base is analyzed once, the edit goes up as a base+patch request.
func TestIncrementalServed(t *testing.T) {
	srv := newDaemon(t)
	dir := t.TempDir()
	basePath := writeFile(t, dir, "prog.mc", incrBaseSrc)
	editDir := filepath.Join(dir, "edited")
	if err := os.Mkdir(editDir, 0o755); err != nil {
		t.Fatal(err)
	}
	editedPath := writeFile(t, editDir, "prog.mc",
		strings.Replace(incrBaseSrc, "g = 2;", "g = 9;", 1))

	localCode, localOut := runCheck(t, "-incremental", basePath, editedPath)
	servedCode, servedOut := runCheck(t, "-server", srv, "-incremental", basePath, editedPath)
	if localCode != servedCode || localOut != servedOut {
		t.Errorf("served output differs (exit %d vs %d)\n--- local ---\n%s--- served ---\n%s",
			localCode, servedCode, localOut, servedOut)
	}
}
