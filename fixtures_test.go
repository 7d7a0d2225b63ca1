package fsam_test

// Fixture corpus driver: every testdata/*.mc program carries embedded
// expectations as comments of the form
//
//	// EXPECT pt(name) = {a, b}       exact points-to of a global at exit
//	// EXPECT pt(name) contains a     membership
//	// EXPECT pt(name) excludes a     non-membership
//	// EXPECT races = N | races >= N
//	// EXPECT deadlocks = N
//	// EXPECT leaks = N
//	// EXPECT threads = N
//
// The driver analyzes each fixture with full FSAM and checks every
// expectation; it also validates the analysis against 8 concrete schedules.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/interp"
)

// expectation is one parsed EXPECT line.
type expectation struct {
	line int
	text string
}

func parseExpectations(src string) []expectation {
	var out []expectation
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(trimmed, "// EXPECT "); ok {
			out = append(out, expectation{line: i + 1, text: strings.TrimSpace(rest)})
		}
	}
	return out
}

func checkExpectation(t *testing.T, a *fsam.Analysis, e expectation) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("line %d: EXPECT %s: %s", e.line, e.text, fmt.Sprintf(format, args...))
	}

	switch {
	case strings.HasPrefix(e.text, "pt("):
		rest := strings.TrimPrefix(e.text, "pt(")
		idx := strings.Index(rest, ")")
		if idx < 0 {
			fail("malformed")
			return
		}
		name := rest[:idx]
		spec := strings.TrimSpace(rest[idx+1:])
		got, err := a.PointsToGlobal(name)
		if err != nil {
			fail("%v", err)
			return
		}
		switch {
		case strings.HasPrefix(spec, "= {"):
			want := parseSet(strings.TrimPrefix(spec, "= "))
			if !equalSlices(got, want) {
				fail("got %v, want %v", got, want)
			}
		case strings.HasPrefix(spec, "contains "):
			obj := strings.TrimPrefix(spec, "contains ")
			if !containsStr(got, obj) {
				fail("got %v", got)
			}
		case strings.HasPrefix(spec, "excludes "):
			obj := strings.TrimPrefix(spec, "excludes ")
			if containsStr(got, obj) {
				fail("got %v", got)
			}
		default:
			fail("malformed points-to spec")
		}

	case strings.HasPrefix(e.text, "races"):
		checkFindings(t, a, e, "race")
	case strings.HasPrefix(e.text, "deadlocks"):
		checkFindings(t, a, e, "deadlock")
	case strings.HasPrefix(e.text, "leaks"):
		checkFindings(t, a, e, "leak")
	case strings.HasPrefix(e.text, "threads"):
		checkCount(t, e, a.Stats.Threads)
	default:
		fail("unknown expectation kind")
	}
}

// checkFindings checks a count expectation against the number of findings
// checker id reports on a. A checker skipped at a's precision tier fails
// the expectation rather than counting as zero findings.
func checkFindings(t *testing.T, a *fsam.Analysis, e expectation, id string) {
	t.Helper()
	res, err := a.Diagnostics(id)
	if err != nil {
		t.Errorf("line %d: EXPECT %s: %v", e.line, e.text, err)
		return
	}
	if reason, ok := res.Skipped[id]; ok {
		t.Errorf("line %d: EXPECT %s: %s checker skipped: %s", e.line, e.text, id, reason)
		return
	}
	checkCount(t, e, len(res.Diags))
}

func checkCount(t *testing.T, e expectation, got int) {
	t.Helper()
	fields := strings.Fields(e.text)
	if len(fields) != 3 {
		t.Errorf("line %d: malformed count expectation %q", e.line, e.text)
		return
	}
	want, err := strconv.Atoi(fields[2])
	if err != nil {
		t.Errorf("line %d: bad count in %q", e.line, e.text)
		return
	}
	switch fields[1] {
	case "=":
		if got != want {
			t.Errorf("line %d: EXPECT %s: got %d", e.line, e.text, got)
		}
	case ">=":
		if got < want {
			t.Errorf("line %d: EXPECT %s: got %d", e.line, e.text, got)
		}
	default:
		t.Errorf("line %d: bad operator in %q", e.line, e.text)
	}
}

func parseSet(s string) []string {
	s = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(s), "}"), "{")
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	sort.Strings(out)
	return out
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestFixtures(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.mc")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("fixture corpus too small: %d files", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			srcBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)
			expects := parseExpectations(src)
			if len(expects) == 0 {
				t.Fatalf("%s has no EXPECT lines", path)
			}
			a, err := fsam.AnalyzeSource(path, src, fsam.Config{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			for _, e := range expects {
				checkExpectation(t, a, e)
			}
			// Concrete validation: every observed load value must be in the
			// analysis' points-to set.
			for seed := int64(0); seed < 8; seed++ {
				r := interp.Run(a.Prog, seed, 0)
				for _, obs := range r.Observations {
					if obs.Value.Obj == nil {
						continue
					}
					if !a.Result.PointsToVar(obs.Load.Dst).Has(uint32(obs.Value.Obj.ID)) {
						t.Fatalf("seed %d: unsound: load [%s] observed %s", seed, obs.Load, obs.Value)
					}
				}
			}
		})
	}
}
