package harness

// Incremental-analysis helpers for the delta tests: a canonical
// one-function edit over generated workloads and an observable-result
// fingerprint that must be bit-identical between a from-scratch run and an
// incremental re-analysis.

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/ir"

	fsam "repro"
)

// sitePos matches the allocation/spawn-site position suffix embedded in
// heap and thread object names ("heap@f:42", "thread@main:7"). Positions
// are normalized away before comparison: the delta contract is equality
// modulo positions (a noop-tier adoption keeps the base run's line
// numbers, which an edit may have shifted without changing any semantics).
var sitePos = regexp.MustCompile(`@([A-Za-z_][A-Za-z0-9_]*):[0-9]+`)

func normalizePos(s string) string { return sitePos.ReplaceAllString(s, "@$1") }

// Fingerprint renders every observable answer of an analysis into one
// stable string: the flow-sensitive exit points-to set of every global, the
// alias-pair count, and the sorted diagnostics (checker, object, message,
// related messages — everything but raw positions). Two analyses of
// semantically equal programs under one engine must fingerprint
// identically — this is the equality contract AnalyzeDeltaCtx promises
// against a from-scratch run.
func Fingerprint(a *fsam.Analysis) (string, error) {
	if a == nil || a.Prog == nil {
		return "", fmt.Errorf("no analysis to fingerprint")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s precision=%s\n", a.Engine, a.Precision)

	var globals []string
	for _, o := range a.Prog.Objects {
		if o.Kind == ir.ObjGlobal {
			globals = append(globals, o.Name)
		}
	}
	sort.Strings(globals)
	for _, g := range globals {
		names, err := a.PointsToGlobal(g)
		if err != nil {
			return "", fmt.Errorf("points-to %s: %w", g, err)
		}
		for i := range names {
			names[i] = normalizePos(names[i])
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "pt %s -> {%s}\n", g, strings.Join(names, ","))
	}
	fmt.Fprintf(&b, "aliaspairs=%d\n", a.AliasPairs())

	res, err := a.Diagnostics()
	if err != nil {
		return "", fmt.Errorf("diagnostics: %w", err)
	}
	var fps []string
	for _, d := range res.Diags {
		var rel []string
		for _, r := range d.Related {
			rel = append(rel, normalizePos(r.Message))
		}
		fps = append(fps, fmt.Sprintf("diag %s|%s|%s|%s",
			d.Checker, normalizePos(d.Object), normalizePos(d.Message), strings.Join(rel, ";")))
	}
	sort.Strings(fps)
	for _, fp := range fps {
		b.WriteString(fp)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// CanonicalEdit applies the benchmark's standard one-function edit to a
// generated workload: bump the trailing integer constant of the first
// side-effect-free filler line (`<name>_acc = <name>_acc * A + B;`). The
// edit changes exactly one function's content address while leaving the
// CFG isomorphic — the tier a typical constant tweak lands in. It returns
// the edited source and the zero-based line index it touched, or -1 when
// src has no filler line (then src is returned unchanged).
func CanonicalEdit(src string) (string, int) {
	lines := strings.Split(src, "\n")
	for i, ln := range lines {
		j := strings.Index(ln, "_acc * ")
		if j < 0 || !strings.HasSuffix(ln, ";") {
			continue
		}
		k := strings.LastIndex(ln, "+ ")
		if k < 0 {
			continue
		}
		numEnd := len(ln) - 1 // strip ";"
		num := ln[k+2 : numEnd]
		v := 0
		ok := len(num) > 0
		for _, c := range num {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if !ok {
			continue
		}
		lines[i] = fmt.Sprintf("%s+ %d;", ln[:k], v+1)
		return strings.Join(lines, "\n"), i
	}
	return src, -1
}
