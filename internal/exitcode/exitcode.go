// Package exitcode fixes the process exit-code convention shared by the
// cmd/ tools, so scripts driving them can distinguish "worked at full
// precision" from "worked, but the degradation ladder kicked in" from
// "failed outright" without parsing output.
//
// Degradation codes come from one literal tier → code table, ladder.
// Scripts in the wild match on these numbers, so a code is never reused
// for another tier: 3 belonged to the removed thread-oblivious rung and
// stays reserved.
package exitcode

import fsam "repro"

const (
	// OK: the analysis completed at full precision (or the command does
	// not run an analysis and simply succeeded).
	OK = 0
	// Failure: hard failure — I/O error, source that does not compile, a
	// deadline that expired before the pre-analysis completed, or a
	// validation violation.
	Failure = 1
	// Usage: bad flags or arguments.
	Usage = 2
	// FindingsReported: fsamcheck ran cleanly and reported at least one
	// diagnostic. It deliberately shares the numeric slot with Failure —
	// both must gate CI, and the convention (clean=0, findings=1, usage=2)
	// matches grep and the mainstream linters; fsamcheck's stderr
	// distinguishes the two for humans.
	FindingsReported = 1
	// 3 is reserved: it was the removed thread-oblivious rung's code.

	// DegradedAndersen: the run completed, but only the flow-insensitive
	// Andersen pre-analysis is available.
	DegradedAndersen = 4
	// DegradedCFGFree: the run completed, but the degradation ladder fell
	// back to the CFG-free flow-sensitive tier.
	DegradedCFGFree = 5
	// DegradedThreadModular: the run completed, but the degradation ladder
	// fell back to the thread-modular flow-sensitive tier.
	DegradedThreadModular = 6
)

// ladder maps every on-ladder tier to its exit code, least severe first:
// a code's index is its severity among the ladder codes.
var ladder = []struct {
	tier fsam.Precision
	code int
}{
	{fsam.PrecisionSparseFS, OK},
	{fsam.PrecisionThreadModularFS, DegradedThreadModular},
	{fsam.PrecisionCFGFreeFS, DegradedCFGFree},
	{fsam.PrecisionAndersenOnly, DegradedAndersen},
}

// ForPrecision maps a result tier onto the exit-code convention.
// PrecisionNone maps to Failure: the ladder only reports it alongside an
// error, which callers should have handled already.
func ForPrecision(p fsam.Precision) int {
	for _, r := range ladder {
		if r.tier == p {
			return r.code
		}
	}
	return Failure
}

// ForAnalysis maps a completed Analysis onto the convention relative to
// what was asked for: a run that completed at its requested engine's tier
// is OK — selecting `-engine andersen` and getting Andersen's result is
// success, not degradation — while a run the ladder moved below the
// requested tier reports that tier's degraded code.
func ForAnalysis(a *fsam.Analysis) int {
	if a.Stats.Degraded == "" {
		return OK
	}
	return ForPrecision(a.Precision)
}

// IsDegraded reports whether c is one of the degradation-rung codes: the
// run completed, but below the tier that was asked for.
func IsDegraded(c int) bool {
	r := rank(c)
	return r > rank(OK) && r < len(ladder)
}

// Worst returns the more severe of two codes under the convention:
// Failure and Usage dominate everything; among degradation codes the
// lower-precision tier wins (DegradedAndersen > DegradedCFGFree >
// DegradedThreadModular > OK).
func Worst(a, b int) int {
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// rank orders codes by severity: Failure, then Usage, then the ladder
// codes by their position in the table; -1 for codes outside the
// convention.
func rank(c int) int {
	switch c {
	case Failure:
		return len(ladder) + 1
	case Usage:
		return len(ladder)
	}
	for i, r := range ladder {
		if r.code == c {
			return i
		}
	}
	return -1
}
