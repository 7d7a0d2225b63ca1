// Command fsamcheck runs the FSAM diagnostic checker suite over MiniC
// programs and reports the findings: data races, lock-order deadlock
// cycles, memory leaks, use-after-free, double free, and pthread API
// misuse, all derived from the sparse flow-sensitive thread-aware
// points-to results.
//
// Usage:
//
//	fsamcheck [flags] prog.mc [prog2.mc ...]
//
//	-checkers a,b      run only the named checkers (default: all; see
//	                   -list for IDs)
//	-format FMT        output format: text (default), json, or sarif
//	                   (SARIF 2.1.0, for code-scanning upload)
//	-baseline MODE     "write" records current findings to the baseline
//	                   file and exits 0; "check" reports only findings
//	                   not in the baseline
//	-baseline-file F   baseline path (default .fsamcheck.baseline)
//	-incremental F     re-analyze each input as an edit of base program F,
//	                   adopting every per-function fact the edit did not
//	                   invalidate (findings are identical to a from-scratch
//	                   run; with -server, F is analyzed once and the inputs
//	                   are submitted as base+patch requests)
//	-list              print the registered checkers and exit
//	-timeout D         analysis deadline per file (default 2h)
//	-server URL        analyze via a running fsamd instead of in-process
//
// plus the analysis options every CLI and fsamd share (-engine, -memmodel,
// -escapeprune, -no-interleaving, -no-valueflow, -no-lock, -membudget,
// -steplimit; see cmd/fsam). Precision-gated checkers are skipped on
// coarser engines, and the racypub checker reports only under -memmodel
// tso/pso, where unfenced publication is actually unsafe.
//
// Findings suppressed by inline `// fsam:ignore[checker]` comments are
// dropped (counted on stderr). When the engine's degradation ladder lands
// below full precision, checkers that need the unavailable analyses are
// skipped with a note on stderr — skipping never fails the run.
//
// Exit codes: 0 no findings, 1 findings reported or hard failure
// (distinguished on stderr), 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	fsam "repro"
	"repro/internal/checkers"
	"repro/internal/diag"
	"repro/internal/exitcode"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed flag set; factored out so tests can drive run().
type options struct {
	cfg        fsam.Config
	checkerIDs []string
	format     string
	baseline   string
	baseFile   string
	timeout    time.Duration
	serverURL  string
	// incremental names a base program; inputs are analyzed as edits of it.
	incremental string
	files       []string
}

// incrementalBase is the analyzed -incremental program: the in-process
// analysis handle, or (on the -server path) the daemon-side program key.
type incrementalBase struct {
	a       *fsam.Analysis
	progKey string
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsamcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	checkersFlag := fs.String("checkers", "", "comma-separated checker IDs to run (default: all)")
	fs.StringVar(&opt.format, "format", "text", "output format: text, json, or sarif")
	fs.StringVar(&opt.baseline, "baseline", "", `baseline mode: "write" or "check"`)
	fs.StringVar(&opt.baseFile, "baseline-file", ".fsamcheck.baseline", "baseline file path")
	list := fs.Bool("list", false, "print the registered checkers and exit")
	fs.DurationVar(&opt.timeout, "timeout", 2*time.Hour, "analysis deadline per file")
	fs.StringVar(&opt.serverURL, "server", "", "analyze via a running fsamd at this base URL")
	fs.StringVar(&opt.incremental, "incremental", "", "re-analyze inputs as edits of this base program")
	opt.cfg.RegisterFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return exitcode.Usage
	}
	if *list {
		for _, c := range checkers.All() {
			fmt.Fprintf(stdout, "%-12s %s (%s): %s\n", c.ID, c.Name, c.Severity, c.Doc)
		}
		return exitcode.OK
	}
	opt.files = fs.Args()
	if *checkersFlag != "" {
		for _, id := range strings.Split(*checkersFlag, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opt.checkerIDs = append(opt.checkerIDs, id)
			}
		}
	}
	switch opt.format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "fsamcheck: unknown -format %q (want text, json, or sarif)\n", opt.format)
		return exitcode.Usage
	}
	switch opt.baseline {
	case "", "write", "check":
	default:
		fmt.Fprintf(stderr, "fsamcheck: unknown -baseline %q (want write or check)\n", opt.baseline)
		return exitcode.Usage
	}
	for _, id := range opt.checkerIDs {
		if checkers.ByID(id) == nil {
			fmt.Fprintf(stderr, "fsamcheck: unknown checker %q (known: %s)\n",
				id, strings.Join(checkers.IDs(), ", "))
			return exitcode.Usage
		}
	}
	if len(opt.files) == 0 {
		fmt.Fprintln(stderr, "usage: fsamcheck [flags] prog.mc [prog2.mc ...]")
		fs.Usage()
		return exitcode.Usage
	}
	return check(opt, stdout, stderr)
}

// check analyzes every file, merges the diagnostics, applies the baseline,
// and renders. The merged list is re-sorted under the canonical order so
// multi-file output is deterministic regardless of argument order effects
// within a file (fingerprints are per-file and unaffected by the merge).
func check(opt options, stdout, stderr io.Writer) int {
	var (
		all        []diag.Diagnostic
		skipped    = map[string]string{}
		suppressed int
		inc        *incrementalBase
	)
	if opt.incremental != "" {
		var code int
		inc, code = loadIncrementalBase(opt, stderr)
		if inc == nil {
			return code
		}
	}
	for _, path := range opt.files {
		srcBytes, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "fsamcheck:", err)
			return exitcode.Failure
		}
		res, code := analyzeOne(opt, inc, path, string(srcBytes), stderr)
		if res == nil {
			return code
		}
		all = append(all, res.Diags...)
		for id, reason := range res.Skipped {
			skipped[id] = reason
		}
		suppressed += res.Suppressed
	}
	diag.Sort(all)

	if len(skipped) > 0 {
		ids := make([]string, 0, len(skipped))
		for id := range skipped {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(stderr, "fsamcheck: checker %s skipped: %s\n", id, skipped[id])
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "fsamcheck: %d finding(s) suppressed by fsam:ignore comments\n", suppressed)
	}

	switch opt.baseline {
	case "write":
		f, err := os.Create(opt.baseFile)
		if err == nil {
			err = diag.WriteBaseline(f, all)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "fsamcheck:", err)
			return exitcode.Failure
		}
		fmt.Fprintf(stdout, "fsamcheck: wrote %d finding(s) to %s\n", len(all), opt.baseFile)
		return exitcode.OK
	case "check":
		f, err := os.Open(opt.baseFile)
		if err != nil {
			fmt.Fprintln(stderr, "fsamcheck:", err)
			return exitcode.Failure
		}
		base, err := diag.ReadBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "fsamcheck:", err)
			return exitcode.Failure
		}
		var known int
		all, known = base.Filter(all)
		if known > 0 {
			fmt.Fprintf(stderr, "fsamcheck: %d known finding(s) hidden by baseline %s\n", known, opt.baseFile)
		}
	}

	if err := render(stdout, opt, all); err != nil {
		fmt.Fprintln(stderr, "fsamcheck:", err)
		return exitcode.Failure
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "fsamcheck: %d finding(s)\n", len(all))
		return exitcode.FindingsReported
	}
	return exitcode.OK
}

// render writes the findings in the selected format. SARIF carries the
// rule metadata of exactly the checkers that ran (or all, by default).
func render(w io.Writer, opt options, diags []diag.Diagnostic) error {
	switch opt.format {
	case "json":
		return diag.WriteJSON(w, diags)
	case "sarif":
		return diag.WriteSARIF(w, diags, checkers.Rules(opt.checkerIDs...))
	default:
		return diag.WriteText(w, diags)
	}
}

// loadIncrementalBase analyzes the -incremental program once. In-process
// the result is the base Analysis every input deltas against; on the
// -server path it is the daemon-side program key the patch requests name.
// A nil result means a terminal error; the int is the exit code.
func loadIncrementalBase(opt options, stderr io.Writer) (*incrementalBase, int) {
	srcBytes, err := os.ReadFile(opt.incremental)
	if err != nil {
		fmt.Fprintln(stderr, "fsamcheck:", err)
		return nil, exitcode.Failure
	}
	ctx := context.Background()
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}
	if opt.serverURL != "" {
		c := client.New(opt.serverURL)
		resp, err := c.Analyze(ctx, server.AnalyzeRequest{
			Name:   opt.incremental,
			Source: string(srcBytes),
			Config: opt.cfg,
		})
		if err != nil {
			fmt.Fprintln(stderr, "fsamcheck:", err)
			return nil, exitcode.Failure
		}
		if resp.ProgKey == "" {
			fmt.Fprintf(stderr, "fsamcheck: server returned no program key for %s; cannot analyze incrementally\n", opt.incremental)
			return nil, exitcode.Failure
		}
		return &incrementalBase{progKey: resp.ProgKey}, exitcode.OK
	}
	a, err := fsam.AnalyzeSourceCtx(ctx, opt.incremental, string(srcBytes), opt.cfg)
	if err != nil {
		fmt.Fprintln(stderr, "fsamcheck:", err)
		return nil, exitcode.Failure
	}
	return &incrementalBase{a: a}, exitcode.OK
}

// analyzeOne produces the diagnostics of one file, in-process or via a
// served fsamd, optionally as a delta against inc. A nil result means a
// terminal error; the int is the exit code to return.
func analyzeOne(opt options, inc *incrementalBase, path, src string, stderr io.Writer) (*fsam.DiagnosticsResult, int) {
	ctx := context.Background()
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}
	if opt.serverURL != "" {
		return analyzeServed(ctx, opt, inc, path, src, stderr)
	}
	var (
		a   *fsam.Analysis
		err error
	)
	if inc != nil {
		var rep *fsam.DeltaReport
		a, rep, err = fsam.AnalyzeDeltaCtx(ctx, inc.a, path, src)
		if rep != nil {
			fmt.Fprintf(stderr, "fsamcheck: %s: incremental tier=%s adopted=%d changed=%d (%s)\n",
				path, rep.Tier, rep.AdoptedFuncs, len(rep.ChangedFuncs), rep.Facts)
		}
	} else {
		a, err = fsam.AnalyzeSourceCtx(ctx, path, src, opt.cfg)
	}
	if err != nil {
		if pipeline.ErrCancelled(err) {
			fmt.Fprintf(stderr, "fsamcheck: %s: out of time after %s\n", path, opt.timeout)
			return nil, exitcode.Failure
		}
		fmt.Fprintln(stderr, "fsamcheck:", err)
		return nil, exitcode.Failure
	}
	if a.Stats.Degraded != "" {
		fmt.Fprintf(stderr, "fsamcheck: %s: precision degraded to %s (%s)\n",
			path, a.Precision, a.Stats.Degraded)
	}
	res, err := a.Diagnostics(opt.checkerIDs...)
	if err != nil {
		fmt.Fprintln(stderr, "fsamcheck:", err)
		if errors.Is(err, checkers.ErrUnknownChecker) {
			return nil, exitcode.Usage
		}
		return nil, exitcode.Failure
	}
	return res, exitcode.OK
}

// analyzeServed is the -server path: POST the source (as a base+patch
// request when inc is set), then query /v1/diagnostics on the cached
// result.
func analyzeServed(ctx context.Context, opt options, inc *incrementalBase, path, src string, stderr io.Writer) (*fsam.DiagnosticsResult, int) {
	c := client.New(opt.serverURL)
	areq := server.AnalyzeRequest{
		Name:   path,
		Source: src,
		Config: opt.cfg,
	}
	if opt.timeout > 0 {
		areq.DeadlineMS = opt.timeout.Milliseconds()
	}
	var resp *server.AnalyzeResponse
	var err error
	if inc != nil {
		resp, err = c.AnalyzeDelta(ctx, inc.progKey, areq)
		if err == nil && resp.Delta != nil {
			fmt.Fprintf(stderr, "fsamcheck: %s: incremental tier=%s adopted=%d changed=%d (%s)\n",
				path, resp.Delta.Tier, resp.Delta.AdoptedFuncs, len(resp.Delta.ChangedFuncs), resp.Delta.Facts)
		}
	} else {
		resp, err = c.Analyze(ctx, areq)
	}
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.ExitCode == exitcode.Usage {
			fmt.Fprintln(stderr, "fsamcheck:", apiErr.Message)
			return nil, exitcode.Usage
		}
		fmt.Fprintln(stderr, "fsamcheck:", err)
		return nil, exitcode.Failure
	}
	if resp.Degraded != "" {
		fmt.Fprintf(stderr, "fsamcheck: %s: precision degraded to %s (%s)\n",
			path, resp.Precision, resp.Degraded)
	}
	dr, err := c.Diagnostics(ctx, resp.ID, opt.checkerIDs)
	if err != nil {
		var apiErr *client.APIError
		fmt.Fprintln(stderr, "fsamcheck:", err)
		if errors.As(err, &apiErr) && apiErr.ExitCode == exitcode.Usage {
			return nil, exitcode.Usage
		}
		return nil, exitcode.Failure
	}
	return &fsam.DiagnosticsResult{
		Diags:      dr.Diagnostics,
		Skipped:    dr.Skipped,
		Suppressed: dr.Suppressed,
	}, exitcode.OK
}
