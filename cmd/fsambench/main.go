// Command fsambench regenerates the paper's evaluation artifacts over the
// synthetic workload suite:
//
//	fsambench -table1              benchmark statistics (Table 1)
//	fsambench -table2              FSAM vs NONSPARSE time/memory (Table 2)
//	                               plus the per-engine comparison matrix
//	fsambench -figure12            ablation slowdowns (Figure 12)
//	fsambench -all                 everything
//	fsambench -table1 -json        Table 1 rows as JSON (machine-readable)
//	fsambench -table2 -json        Table 2 rows as JSON (machine-readable)
//	fsambench -engines -json       engine matrix rows as JSON
//
// Flags -scale (at least 1) and -timeout control workload size and the
// per-analysis budget (the stand-in for the paper's two-hour limit); the
// budget applies to every engine alike, so any analysis can appear as an
// OOT row. The analysis options every CLI and fsamd share (see cmd/fsam)
// configure the Table 2 FSAM column: -engine selects its backend (default
// fsam); -memmodel the memory consistency model (sc/tso/pso; tmod widens
// interference accordingly); the -no-* ablations apply to those runs too;
// -membudget and -steplimit impose resource budgets, and a tripped row
// reports its Andersen-only tier in the fsam_precision / fsam_degraded
// columns rather than failing. Engine-matrix tmod rows also record
// interference rounds.
//
// Wall time of the incremental path and of the service is measured by the
// paired protocol in bench/ (delta.ms, svc.delta_p50_ms, svc.cold_p50_ms);
// the exact incremental and fleet gates are Go tests
// (TestDeltaCanonicalWorkloadEdit, internal/cluster TestClusterRun).
//
// Exit codes: 0 every row at its requested engine's tier, 1 a benchmark
// failed to compile or analyze, 2 usage, 4 at least one row degraded to
// Andersen-only.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	fsam "repro"
	"repro/internal/exitcode"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind a testable seam: it returns the process exit code
// instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg      fsam.Config
		table1   = fs.Bool("table1", false, "print Table 1 (program statistics)")
		table2   = fs.Bool("table2", false, "print Table 2 (time and memory, FSAM vs NonSparse) and the engine matrix")
		engines  = fs.Bool("engines", false, "print the per-engine comparison matrix only")
		figure12 = fs.Bool("figure12", false, "print Figure 12 (phase-ablation slowdowns)")
		all      = fs.Bool("all", false, "print every artifact")
		scale    = fs.Int("scale", harness.DefaultScale, "workload scale factor (at least 1)")
		timeout  = fs.Duration("timeout", harness.DefaultTimeout, "per-analysis deadline (stand-in for the paper's 2h)")
		asJSON   = fs.Bool("json", false, "emit the selected tables as JSON instead of text (alone, implies -table2)")
	)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK
		}
		return exitcode.Usage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "fsambench: unexpected arguments")
		return exitcode.Usage
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "fsambench: -scale %d: want at least 1\n", *scale)
		return exitcode.Usage
	}
	if *asJSON && !*table1 && !*figure12 && !*all && !*engines {
		*table2 = true
	}
	if !*table1 && !*table2 && !*figure12 && !*all && !*engines {
		fs.Usage()
		return exitcode.Usage
	}
	if *all {
		*table1, *table2, *figure12 = true, true, true
	}

	var (
		code int
		err  error
	)
	if *asJSON {
		code, err = emitJSON(stdout, *table1, *table2, *engines, *scale, *timeout, cfg)
	} else {
		code, err = printTables(stdout, *table1, *table2, *engines, *figure12, *scale, *timeout, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fsambench:", err)
		return exitcode.Failure
	}
	return code
}

// printTables writes the selected artifacts as text.
func printTables(w io.Writer, table1, table2, engines, figure12 bool, scale int, timeout time.Duration, cfg fsam.Config) (int, error) {
	code := exitcode.OK
	if table1 {
		harness.PrintTable1(w, harness.RunTable1(scale))
		fmt.Fprintln(w)
	}
	if table2 {
		start := time.Now()
		rows, err := harness.RunTable2(scale, timeout, cfg)
		if err != nil {
			return exitcode.Failure, err
		}
		code = worstTier(rows)
		harness.PrintTable2(w, rows)
		fmt.Fprintf(w, "(total harness time %.1fs, scale %d, timeout %s, engine %s)\n\n",
			time.Since(start).Seconds(), scale, timeout, cfg.Normalize().Engine)
	}
	if table2 || engines {
		mrows, err := harness.RunEngineMatrix(scale, timeout, nil)
		if err != nil {
			return exitcode.Failure, err
		}
		harness.PrintEngineMatrix(w, mrows)
		fmt.Fprintln(w)
	}
	if figure12 {
		rows, err := harness.RunFigure12(scale)
		if err != nil {
			return exitcode.Failure, err
		}
		harness.PrintFigure12(w, rows)
	}
	return code, nil
}

// worstTier folds degraded rows into the exit-code convention. A row that
// completed at its requested engine's tier (FSAMDegraded empty) is OK even
// when that tier is below sparse FS — selecting `-engine andersen` and
// getting Andersen's result is success.
func worstTier(rows []harness.Table2Row) int {
	code := exitcode.OK
	for _, r := range rows {
		if r.FSAMDegraded == "" {
			continue
		}
		if p, ok := fsam.ParsePrecision(r.FSAMPrecision); ok {
			code = exitcode.Worst(code, exitcode.ForPrecision(p))
		}
	}
	return code
}

// emitJSON writes the selected tables as JSON. A single table keeps the
// historical bare-array schema; multiple tables nest under
// "table1"/"table2"/"engines".
func emitJSON(w io.Writer, table1, table2, engines bool, scale int, timeout time.Duration, cfg fsam.Config) (int, error) {
	code := exitcode.OK
	parts := map[string]any{}
	var selected []string
	if table1 {
		parts["table1"] = harness.RunTable1(scale)
		selected = append(selected, "table1")
	}
	if table2 {
		t2, err := harness.RunTable2(scale, timeout, cfg)
		if err != nil {
			return exitcode.Failure, err
		}
		code = worstTier(t2)
		parts["table2"] = t2
		selected = append(selected, "table2")
	}
	if engines {
		m, err := harness.RunEngineMatrix(scale, timeout, nil)
		if err != nil {
			return exitcode.Failure, err
		}
		parts["engines"] = m
		selected = append(selected, "engines")
	}
	var payload any = parts
	if len(selected) == 1 {
		payload = parts[selected[0]]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		return exitcode.Failure, err
	}
	return code, nil
}
