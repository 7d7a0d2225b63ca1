// Command fsam analyzes a MiniC program with the sparse flow-sensitive
// pointer analysis for multithreaded programs (or another engine, such as
// the NONSPARSE baseline under -engine nonsparse) and reports points-to
// results and statistics. Findings (data races, deadlocks, leaks, ...)
// come from the checker suite: run fsamcheck, e.g. fsamcheck -checkers
// race prog.mc.
//
// Usage:
//
//	fsam [flags] prog.mc
//
//	-escape            report the thread-escape classification: per-class
//	                   counts plus every handed-off and shared object with
//	                   its accessor threads
//	-globals           print the points-to set of every global at exit
//	-query NAME        print the points-to set of one global
//	-stats             print analysis statistics
//	-timeout D         analysis deadline (default 2h, like the paper); a
//	                   deadline before the pre-analysis completes exits 1
//	                   with an OOT message, a later one degrades the result
//	-ir                dump the partial-SSA IR instead of analyzing
//	-server URL        submit to a running fsamd instead of analyzing
//	                   in-process (-query/-stats/-escape work; the exit
//	                   code carries the served result's tier)
//
// plus the analysis options every CLI and fsamd share (the solver
// package's option table):
//
//	-engine NAME       fsam (default), tmod, cfgfree, andersen, or
//	                   nonsparse (the paper's NONSPARSE baseline)
//	-memmodel NAME     sc (default), tso, or pso (tmod widens cross-thread
//	                   visibility accordingly)
//	-no-interleaving / -no-valueflow / -no-lock   phase ablations
//	-membudget N       soft heap budget in bytes for the post-pre-analysis
//	                   phases (0 = unlimited); a trip degrades precision
//	-steplimit N       worklist-pop limit per run, summed over every
//	                   post-pre-analysis loop (0 = unlimited); a trip
//	                   degrades precision
//
// Exit codes: 0 result at the requested engine's tier, 1 hard failure
// (I/O, compile error, pre-analysis deadline), 2 usage, 4 result degraded
// to Andersen-only (3, 5 and 6 are reserved; see internal/exitcode).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	fsam "repro"
	"repro/internal/escape"
	"repro/internal/exitcode"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/server/client"
)

func main() {
	var (
		cfg     fsam.Config
		escRep  = flag.Bool("escape", false, "report the thread-escape classification")
		globals = flag.Bool("globals", false, "print points-to of every global at exit")
		query   = flag.String("query", "", "print points-to of one global")
		stats   = flag.Bool("stats", false, "print analysis statistics")
		timeout = flag.Duration("timeout", 2*time.Hour, "analysis deadline")
		dumpIR  = flag.Bool("ir", false, "dump the partial-SSA IR and exit")
		dotVFG  = flag.Bool("dot-vfg", false, "dump the def-use graph as Graphviz DOT")
		dotICFG = flag.Bool("dot-icfg", false, "dump the ICFG as Graphviz DOT")
		srvURL  = flag.String("server", "", "submit to a running fsamd at this base URL instead of analyzing in-process")
	)
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fsam [flags] prog.mc")
		flag.Usage()
		os.Exit(exitcode.Usage)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	if *srvURL != "" {
		if *dumpIR || *dotVFG || *dotICFG || *globals {
			fmt.Fprintln(os.Stderr, "fsam: -ir/-dot-vfg/-dot-icfg/-globals are in-process only, not available with -server")
			os.Exit(exitcode.Usage)
		}
		os.Exit(runServed(*srvURL, flag.Arg(0), src, servedOpts{
			query: *query, stats: *stats, escape: *escRep,
			cfg: cfg, timeout: *timeout,
		}))
	}

	if *dumpIR {
		prog, err := pipeline.Compile(flag.Arg(0), src)
		if err != nil {
			fatal(err)
		}
		fmt.Print(prog.String())
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	a, err := fsam.AnalyzeSourceCtx(ctx, flag.Arg(0), src, cfg)
	if err != nil {
		if pipeline.ErrCancelled(err) {
			fmt.Printf("FSAM: out of time after %s\n", *timeout)
			os.Exit(exitcode.Failure)
		}
		fatal(err)
	}
	if a.Stats.Degraded != "" {
		fmt.Fprintf(os.Stderr, "fsam: precision degraded to %s (%s)\n",
			a.Precision, a.Stats.Degraded)
	}

	if *dotVFG {
		if a.Graph == nil {
			fatal(fmt.Errorf("no def-use graph at precision %s", a.Precision))
		}
		if err := a.Graph.WriteDot(os.Stdout); err != nil {
			fatal(err)
		}
		os.Exit(exitcode.ForAnalysis(a))
	}
	if *dotICFG {
		if err := a.Base.G.WriteDot(os.Stdout); err != nil {
			fatal(err)
		}
		os.Exit(exitcode.ForAnalysis(a))
	}

	if *stats {
		st := a.Stats
		fmt.Printf("engine:            %s\n", a.Engine)
		fmt.Printf("memory model:      %s\n", a.Config.MemModel)
		fmt.Printf("precision:         %s\n", a.Precision)
		if st.Degraded != "" {
			fmt.Printf("degraded:          %s\n", st.Degraded)
		}
		if st.InterferenceRounds > 0 {
			fmt.Printf("interference:      %d rounds\n", st.InterferenceRounds)
		}
		fmt.Printf("statements:        %d\n", st.Stmts)
		fmt.Printf("abstract threads:  %d\n", st.Threads)
		fmt.Printf("def-use edges:     %d (%d thread-oblivious + %d thread-aware (%d stored through %d hubs))\n",
			st.DefUseEdges, st.ObliviousEdges, st.ThreadEdges, st.StoredThreadEdges, st.ThreadHubs)
		fmt.Printf("lock spans:        %d\n", st.LockSpans)
		fmt.Printf("escape classes:    %d local / %d handedoff / %d shared (pruned %d interference edges)\n",
			st.EscapeLocal, st.EscapeHandedOff, st.EscapeShared, st.EscapePrunedEdges)
		fmt.Printf("solver iterations: %d\n", st.Iterations)
		fmt.Printf("worklist pops:     %d pre + %d solve\n", st.PrePops, st.SolvePops)
		fmt.Printf("memory:            %.2f MB\n", float64(st.Bytes)/1e6)
		fmt.Printf("interned sets:     %d unique / %d refs (dedup %.2fx)\n",
			st.UniqueSets, st.SetRefs, st.DedupRatio)
		fmt.Print("time:")
		for _, p := range st.Phases {
			fmt.Printf(" %s=%s", p.Name, p.Time)
		}
		fmt.Println()
	}

	if *query != "" {
		pt, err := a.PointsToGlobal(*query)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pt(%s) = {%s}\n", *query, strings.Join(pt, ", "))
	}

	if *globals {
		for _, o := range a.Prog.Objects {
			if o.Kind != ir.ObjGlobal {
				continue
			}
			pt, err := a.PointsToGlobal(o.Name)
			if err != nil {
				continue
			}
			if len(pt) > 0 {
				fmt.Printf("pt(%s) = {%s}\n", o.Name, strings.Join(pt, ", "))
			}
		}
	}

	if *escRep {
		printEscape(a)
	}

	os.Exit(exitcode.ForAnalysis(a))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsam:", err)
	os.Exit(exitcode.Failure)
}

// printEscape renders the thread-escape classification: the per-class
// summary, then every handed-off and shared object with the threads that
// access it (thread-local objects are elided — they are the common case).
func printEscape(a *fsam.Analysis) {
	esc := a.EscapeResult()
	if esc == nil {
		fatal(fmt.Errorf("no thread model at precision %s: escape classification unavailable", a.Precision))
	}
	fmt.Printf("escape: %d objects: %d local, %d handedoff, %d shared (pruned %d interference edges)\n",
		len(a.Prog.Objects), esc.NumLocal, esc.NumHandedOff, esc.NumShared,
		a.Stats.EscapePrunedEdges)
	for _, o := range a.Prog.Objects {
		cls := esc.ClassOf(o.ID)
		if cls == escape.ThreadLocal {
			continue
		}
		var names []string
		for _, tid := range esc.AccessorThreads(o.ID) {
			names = append(names, esc.Model.Threads[tid].String())
		}
		fmt.Printf("%-9s  %s (accessed by %s)\n", cls, o, strings.Join(names, ", "))
	}
}

// servedOpts is the subset of the CLI surface that works against fsamd.
type servedOpts struct {
	query   string
	stats   bool
	escape  bool
	cfg     fsam.Config
	timeout time.Duration
}

// runServed submits the program to a running fsamd and renders the same
// views the in-process path prints. The returned exit code is the served
// result's tier under the repo convention, exactly as a local run would
// exit.
func runServed(baseURL, name, src string, opts servedOpts) int {
	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	c := client.New(baseURL)
	areq := server.AnalyzeRequest{Name: name, Source: src, Config: opts.cfg}
	if opts.timeout > 0 {
		areq.DeadlineMS = opts.timeout.Milliseconds()
	}
	resp, err := c.Analyze(ctx, areq)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.ExitCode != 0 {
			fmt.Fprintln(os.Stderr, "fsam:", apiErr.Message)
			return apiErr.ExitCode
		}
		fmt.Fprintln(os.Stderr, "fsam:", err)
		return exitcode.Failure
	}
	if resp.Degraded != "" {
		fmt.Fprintf(os.Stderr, "fsam: precision degraded to %s (%s)\n", resp.Precision, resp.Degraded)
	}

	if opts.stats {
		fmt.Printf("server:            %s\n", baseURL)
		fmt.Printf("id:                %s\n", resp.ID)
		fmt.Printf("cached:            %v (shared %v)\n", resp.Cached, resp.Shared)
		fmt.Printf("engine:            %s\n", resp.Engine)
		fmt.Printf("precision:         %s\n", resp.Precision)
		if resp.Degraded != "" {
			fmt.Printf("degraded:          %s\n", resp.Degraded)
		}
		fmt.Printf("fsam time:         %s\n", resp.Stats.FSAMTime)
		fmt.Printf("memory:            %.2f MB\n", float64(resp.Stats.FSAMBytes)/1e6)
		fmt.Printf("interned sets:     %d unique / %d refs (dedup %.2fx)\n",
			resp.Stats.FSAMUniqueSets, resp.Stats.FSAMSetRefs, resp.Stats.FSAMDedup)
	}

	if opts.query != "" {
		pt, err := c.PointsTo(ctx, resp.ID, opts.query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsam:", err)
			return exitcode.Failure
		}
		fmt.Printf("pt(%s) = {%s}\n", opts.query, strings.Join(pt.PointsTo, ", "))
	}

	if opts.escape {
		// The served view is the counter summary only — the per-object
		// classification needs the in-memory escape.Result, which stays
		// server-side. Run without -server for the full report.
		fmt.Printf("escape: %d local, %d handedoff, %d shared (pruned %d interference edges)\n",
			resp.Stats.FSAMEscapeLocal, resp.Stats.FSAMEscapeHandedOff,
			resp.Stats.FSAMEscapeShared, resp.Stats.FSAMEscapePruned)
	}
	return resp.ExitCode
}
