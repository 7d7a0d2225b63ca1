// Command fsamrun executes a MiniC program concretely under seeded thread
// schedules (the validation interpreter) and cross-checks every observed
// load against the FSAM points-to results — the runnable form of the
// artifact's "validate pointer analysis results" micro-benchmarks.
//
// Usage:
//
//	fsamrun [-schedules N] [-fuel N] [-verbose] [analysis options] prog.mc
//
// The analysis options are the ones every CLI and fsamd share (-engine,
// -memmodel, -no-interleaving, -no-valueflow, -no-lock, -membudget,
// -steplimit; see cmd/fsam).
//
// Every engine is sound, so the cross-check applies to all of them: a
// load observation outside the selected engine's points-to set is a
// soundness violation regardless of tier. The interpreter executes
// sequentially-consistent interleavings, which every -memmodel admits, so
// the cross-check is valid for sc, tso and pso alike.
//
// Exit codes: 0 all observations covered at the requested engine's tier,
// 1 hard failure or a coverage violation, 2 usage, 4 the analysis
// degraded to Andersen-only, so the cross-check ran below the requested
// tier.
package main

import (
	"flag"
	"fmt"
	"os"

	fsam "repro"
	"repro/internal/exitcode"
	"repro/internal/interp"
	"repro/internal/ir"
)

func main() {
	var (
		cfg       fsam.Config
		schedules = flag.Int("schedules", 16, "number of seeded schedules to run")
		fuel      = flag.Int("fuel", 0, "statement budget per run (0 = default)")
		verbose   = flag.Bool("verbose", false, "print every load observation")
	)
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fsamrun [flags] prog.mc")
		os.Exit(exitcode.Usage)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	a, err := fsam.AnalyzeSource(flag.Arg(0), string(srcBytes), cfg)
	if err != nil {
		fatal(err)
	}
	if a.Stats.Degraded != "" {
		fmt.Fprintf(os.Stderr, "fsamrun: analysis degraded to %s (%s)\n",
			a.Precision, a.Stats.Degraded)
	}

	completed, deadlocked, aborted, violations, observations := 0, 0, 0, 0, 0
	for seed := 0; seed < *schedules; seed++ {
		r := interp.Run(a.Prog, int64(seed), *fuel)
		switch {
		case r.Completed:
			completed++
		case r.Deadlocked:
			deadlocked++
		case r.UB:
			aborted++
		}
		for _, obs := range r.Observations {
			observations++
			if obs.Value.Obj == nil {
				continue
			}
			pt := a.PointsToVar(obs.Load.Dst)
			ok := pt.Has(uint32(obs.Value.Obj.ID))
			if *verbose {
				mark := "ok"
				if !ok {
					mark = "VIOLATION"
				}
				fmt.Printf("seed %2d line %3d: [%s] read %-12s %s\n",
					seed, ir.LineOf(obs.Load), obs.Load, obs.Value, mark)
			}
			if !ok {
				violations++
				if !*verbose {
					fmt.Printf("VIOLATION seed %d: load [%s] observed %s outside pt set %s\n",
						seed, obs.Load, obs.Value, pt)
				}
			}
		}
	}

	fmt.Printf("%d schedule(s): %d completed, %d deadlocked, %d aborted on null dereference; %d load observations, %d violation(s)\n",
		*schedules, completed, deadlocked, aborted, observations, violations)
	if violations > 0 {
		os.Exit(exitcode.Failure)
	}
	fmt.Printf("all concrete observations covered by the %s points-to results\n", a.Engine)
	os.Exit(exitcode.ForAnalysis(a))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsamrun:", err)
	os.Exit(exitcode.Failure)
}
