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
//	fsambench -scales 1,4,16 -json multi-scale seed object (see BENCH_seed.json)
//	fsambench -perfdiff FILE       re-run the smallest scale recorded in a
//	                               -scales seed file and fail (exit 1) on a
//	                               >25% total wall-time regression
//	fsambench -incremental         cold vs warm: analyze each benchmark,
//	                               apply the canonical one-function edit,
//	                               and re-analyze both from scratch and
//	                               incrementally (default scales 1,4,16;
//	                               override with -scales). Fails (exit 1)
//	                               when results differ or warm exceeds
//	                               40% of cold at scale 4
//	fsambench -server URL          drive a running fsamd instead: N requests
//	                               per benchmark (-requests), reporting
//	                               client-observed latency percentiles and
//	                               cache hits
//	fsambench -cluster             boot an in-process fleet (-replicas, default
//	                               2) behind an fsamgw gateway, inject chaos
//	                               into replica 0 (-chaos), kill and restart
//	                               the last replica mid-run (-kill), and drive
//	                               -traffic mixed hot/cold requests through
//	                               the gateway with client retries disabled.
//	                               Fails (exit 1) on any client-visible
//	                               failure, or if retries, hedges, or a full
//	                               breaker open→close cycle were not observed,
//	                               or the fleet cache hit ratio sags
//
// Flags -scale and -timeout control workload size and the per-analysis
// budget (the stand-in for the paper's two-hour limit); the budget applies
// to every engine alike, so any analysis can appear as an OOT row.
// The analysis options every CLI and fsamd share (see cmd/fsam) configure
// the Table 2 FSAM column and, under -server, every request: -engine
// selects its backend (default fsam); -memmodel the memory consistency
// model (sc/tso/pso; tmod widens interference accordingly); -escapeprune
// turns the thread-escape pruning oracle off for ablation; the -no-*
// ablations apply to those runs too; -membudget and -steplimit impose the
// degradation ladder's resource budgets, and a tripped row reports its
// tier in the fsam_precision / fsam_degraded columns rather than failing.
// Engine-matrix tmod rows also record interference rounds and the seq/par
// wall-time ratio of solving threads on one goroutine vs one goroutine per
// thread.
//
// Exit codes: 0 every row at its requested engine's tier, 1 a benchmark
// failed to compile or analyze (or the perf diff regressed), 2 usage,
// 4/5/6 at least one row degraded (the worst tier reached: Andersen-only /
// CFG-free / thread-modular).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	fsam "repro"
	"repro/internal/cluster"
	"repro/internal/exitcode"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsambench:", err)
		os.Exit(exitcode.Failure)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		cfg       fsam.Config
		table1    = flag.Bool("table1", false, "print Table 1 (program statistics)")
		table2    = flag.Bool("table2", false, "print Table 2 (time and memory, FSAM vs NonSparse) and the engine matrix")
		engines   = flag.Bool("engines", false, "print the per-engine comparison matrix only")
		figure12  = flag.Bool("figure12", false, "print Figure 12 (phase-ablation slowdowns)")
		all       = flag.Bool("all", false, "print every artifact")
		scale     = flag.Int("scale", harness.DefaultScale, "workload scale factor")
		scalesCSV = flag.String("scales", "", "comma-separated scales: run Table 2 at each (with -json, emit the seed-file object)")
		perfdiff  = flag.String("perfdiff", "", "seed JSON file to diff wall times against (exit 1 on >25% total regression)")
		incr      = flag.Bool("incremental", false, "measure cold vs warm (incremental) re-analysis per benchmark")
		reps      = flag.Int("reps", 3, "timed repetitions per -incremental measurement (best-of-N)")
		timeout   = flag.Duration("timeout", harness.DefaultTimeout, "per-analysis deadline (stand-in for the paper's 2h)")
		asJSON    = flag.Bool("json", false, "emit the selected tables as JSON instead of text (alone, implies -table2)")
		srvURL    = flag.String("server", "", "drive a running fsamd at this base URL instead of analyzing in-process")
		requests  = flag.Int("requests", 5, "requests per benchmark in -server mode")
		clusterM  = flag.Bool("cluster", false, "boot an in-process fsamd fleet behind fsamgw, drive chaos traffic through it, and gate on resilience")
		replicas  = flag.Int("replicas", 2, "fleet size in -cluster mode")
		traffic   = flag.Int("traffic", 200, "total analyze requests in -cluster mode")
		chaosStr  = flag.String("chaos", "latency=30ms:0.3,error=0.15", "fault spec injected into replica 0 in -cluster mode")
		kill      = flag.Bool("kill", true, "kill and restart the last replica mid-run in -cluster mode")
		hedge     = flag.Duration("hedge", 30*time.Millisecond, "gateway hedge delay in -cluster mode")
		seed      = flag.Int64("seed", 1, "traffic-plan seed in -cluster mode")
	)
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *clusterM {
		return runCluster(*replicas, *traffic, *chaosStr, *kill, *hedge, *seed)
	}
	if *srvURL != "" {
		return runServer(*srvURL, *requests, *scale, *timeout, cfg)
	}
	if *incr {
		scales := []int{1, 4, 16}
		if *scalesCSV != "" {
			var err error
			if scales, err = parseScales(*scalesCSV); err != nil {
				fmt.Fprintln(os.Stderr, "fsambench:", err)
				os.Exit(exitcode.Usage)
			}
		}
		return runIncremental(scales, *reps, *timeout, cfg, *asJSON)
	}
	if *perfdiff != "" {
		return runPerfDiff(*perfdiff, *timeout, cfg)
	}
	if *scalesCSV != "" {
		scales, err := parseScales(*scalesCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsambench:", err)
			os.Exit(exitcode.Usage)
		}
		return runScales(scales, *timeout, cfg, *asJSON)
	}
	if *asJSON && !*table1 && !*figure12 && !*all && !*engines {
		*table2 = true
	}
	if !*table1 && !*table2 && !*figure12 && !*all && !*engines {
		flag.Usage()
		os.Exit(exitcode.Usage)
	}
	if *all {
		*table1, *table2, *figure12 = true, true, true
	}

	if *asJSON {
		return emitJSON(*table1, *table2, *engines, *scale, *timeout, cfg)
	}

	code := exitcode.OK
	if *table1 {
		harness.PrintTable1(os.Stdout, harness.RunTable1(*scale))
		fmt.Println()
	}
	if *table2 {
		start := time.Now()
		rows, err := harness.RunTable2(*scale, *timeout, cfg)
		if err != nil {
			return exitcode.Failure, err
		}
		code = worstTier(rows)
		harness.PrintTable2(os.Stdout, rows)
		fmt.Printf("(total harness time %.1fs, scale %d, timeout %s, engine %s)\n\n",
			time.Since(start).Seconds(), *scale, *timeout, cfg.Normalize().Engine)
	}
	if *table2 || *engines {
		mrows, err := harness.RunEngineMatrix(*scale, *timeout, nil)
		if err != nil {
			return exitcode.Failure, err
		}
		harness.PrintEngineMatrix(os.Stdout, mrows)
		fmt.Println()
	}
	if *figure12 {
		rows, err := harness.RunFigure12(*scale)
		if err != nil {
			return exitcode.Failure, err
		}
		harness.PrintFigure12(os.Stdout, rows)
	}
	return code, nil
}

// runServer drives a running fsamd: N analyze requests per suite benchmark,
// reporting client-observed latency percentiles (the service-level view —
// queueing, caching, and transport included) alongside how many were served
// from the daemon's cache. The exit code folds the worst served tier, same
// as the in-process harness.
func runServer(baseURL string, requests, scale int, timeout time.Duration, cfg fsam.Config) (int, error) {
	if requests < 1 {
		requests = 1
	}
	ctx := context.Background()
	c := client.New(baseURL)

	fmt.Printf("fsamd at %s: %d request(s) per benchmark, scale %d, engine %s\n\n", baseURL, requests, scale, cfg.Normalize().Engine)
	fmt.Printf("%-14s %8s %6s %6s  %10s %10s %10s  %s\n",
		"benchmark", "requests", "hits", "dedup", "p50", "p90", "p99", "precision")
	code := exitcode.OK
	for _, spec := range workload.Suite {
		samples := make([]time.Duration, 0, requests)
		hits, shared := 0, 0
		tier := ""
		for i := 0; i < requests; i++ {
			areq := server.AnalyzeRequest{Benchmark: spec.Name, Scale: scale, Config: cfg}
			if timeout > 0 {
				areq.DeadlineMS = timeout.Milliseconds()
			}
			t0 := time.Now()
			resp, err := c.Analyze(ctx, areq)
			if err != nil {
				return exitcode.Failure, fmt.Errorf("%s: %w", spec.Name, err)
			}
			samples = append(samples, time.Since(t0))
			if resp.Cached {
				hits++
			}
			if resp.Shared {
				shared++
			}
			tier = resp.Precision
			code = exitcode.Worst(code, resp.ExitCode)
		}
		ps := harness.Percentiles(samples, 0.50, 0.90, 0.99)
		fmt.Printf("%-14s %8d %6d %6d  %10s %10s %10s  %s\n",
			spec.Name, requests, hits, shared,
			ps[0].Round(time.Microsecond), ps[1].Round(time.Microsecond), ps[2].Round(time.Microsecond), tier)
	}
	return code, nil
}

// runCluster is the fleet resilience drill: N in-process fsamd replicas
// behind an fsamgw gateway, chaos on replica 0, a kill/restart of the last
// replica mid-run, and a client with retries disabled so only the gateway
// stands between the faults and the caller. Exit 1 unless the run shows
// zero client-visible failures with retries, hedges, and a full breaker
// open→close cycle actually observed.
func runCluster(replicas, traffic int, chaosSpec string, kill bool, hedge time.Duration, seed int64) (int, error) {
	chaos, err := server.ParseChaos(chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsambench:", err)
		os.Exit(exitcode.Usage)
	}
	rep, err := cluster.Run(cluster.Options{
		Replicas:    replicas,
		Requests:    traffic,
		Chaos:       chaos,
		KillRestart: kill,
		Seed:        seed,
		HedgeAfter:  hedge,
		Out:         os.Stdout,
	})
	if err != nil {
		return exitcode.Failure, err
	}
	rep.Print(os.Stdout)
	if err := rep.Gate(); err != nil {
		return exitcode.Failure, fmt.Errorf("cluster gate: %w", err)
	}
	fmt.Println("cluster ok")
	return exitcode.OK, nil
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
func emitJSON(table1, table2, engines bool, scale int, timeout time.Duration, cfg fsam.Config) (int, error) {
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		return exitcode.Failure, err
	}
	return code, nil
}

// seedFile is the schema of `fsambench -scales ... -json`, the committed
// BENCH_seed.json: Table 2 rows per scale plus the engine matrix at the
// smallest scale. Scales are kept as strings in the map (JSON object keys).
type seedFile struct {
	Scales  []int                          `json:"scales"`
	Table2  map[string][]harness.Table2Row `json:"table2"`
	Engines []harness.EngineRow            `json:"engines"`
}

func parseScales(csv string) ([]int, error) {
	var scales []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scales entry %q (want positive integers)", f)
		}
		scales = append(scales, n)
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("-scales is empty")
	}
	sort.Ints(scales)
	return scales, nil
}

// runScales measures Table 2 at each scale (plus the engine matrix at the
// smallest), emitting the seed object with -json or per-scale text tables
// without.
func runScales(scales []int, timeout time.Duration, cfg fsam.Config, asJSON bool) (int, error) {
	seed := seedFile{Scales: scales, Table2: map[string][]harness.Table2Row{}}
	code := exitcode.OK
	for _, sc := range scales {
		rows, err := harness.RunTable2(sc, timeout, cfg)
		if err != nil {
			return exitcode.Failure, err
		}
		code = exitcode.Worst(code, worstTier(rows))
		seed.Table2[strconv.Itoa(sc)] = rows
		if !asJSON {
			fmt.Printf("== scale %d ==\n", sc)
			harness.PrintTable2(os.Stdout, rows)
			fmt.Println()
		}
	}
	m, err := harness.RunEngineMatrix(scales[0], timeout, nil)
	if err != nil {
		return exitcode.Failure, err
	}
	seed.Engines = m
	if !asJSON {
		fmt.Printf("== engine matrix, scale %d ==\n", scales[0])
		harness.PrintEngineMatrix(os.Stdout, m)
		return code, nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(seed); err != nil {
		return exitcode.Failure, err
	}
	return code, nil
}

// perfDiffThreshold is the tolerated total wall-time growth over the seed.
const perfDiffThreshold = 1.25

// warmRatioThreshold is the incremental-path speedup gate: at the gated
// scale, re-analyzing the suite's canonical one-function edits warm must
// cost at most this fraction of analyzing them cold.
const warmRatioThreshold = 0.40

// warmRatioScale is the scale the warm/cold gate applies at. Scale 1 runs
// are milliseconds-noisy and scale 16 is slow to double-run in CI; 4 is
// where the suite is big enough to measure and small enough to gate on.
const warmRatioScale = 4

// runIncremental measures cold vs warm re-analysis per benchmark and scale:
// each benchmark is analyzed, edited via the canonical one-function edit,
// and the edit re-analyzed both from scratch and incrementally (best of
// reps timed runs each). Results must be identical; at warmRatioScale the
// suite-total warm time must stay under warmRatioThreshold of cold.
func runIncremental(scales []int, reps int, timeout time.Duration, cfg fsam.Config, asJSON bool) (int, error) {
	ctx := context.Background()
	byScale := map[string][]harness.IncrementalRow{}
	var gateErr error
	for _, sc := range scales {
		var rows []harness.IncrementalRow
		var coldTotal, warmTotal time.Duration
		if !asJSON {
			fmt.Printf("== incremental, scale %d, engine %s ==\n", sc, cfg.Normalize().Engine)
			fmt.Printf("%-14s %10s %10s %7s  %-8s %8s %8s %s\n",
				"benchmark", "cold(s)", "warm(s)", "ratio", "tier", "adopted", "changed", "identical")
		}
		for _, spec := range workload.Suite {
			row, err := harness.RunIncremental(ctx, spec.Name, sc, reps, timeout, cfg)
			if err != nil {
				return exitcode.Failure, err
			}
			rows = append(rows, row)
			coldTotal += row.Cold
			warmTotal += row.Warm
			if !row.Identical {
				gateErr = fmt.Errorf("%s at scale %d: warm results differ from cold", spec.Name, sc)
			}
			if !asJSON {
				fmt.Printf("%-14s %10.3f %10.3f %6.2fx  %-8s %8d %8d %v\n",
					row.Name, row.Cold.Seconds(), row.Warm.Seconds(), row.Ratio(),
					row.Tier, row.Adopted, row.Changed, row.Identical)
			}
		}
		ratio := 0.0
		if coldTotal > 0 {
			ratio = float64(warmTotal) / float64(coldTotal)
		}
		if !asJSON {
			fmt.Printf("%-14s %10.3f %10.3f %6.2fx\n\n", "TOTAL",
				coldTotal.Seconds(), warmTotal.Seconds(), ratio)
		}
		if sc == warmRatioScale && ratio > warmRatioThreshold && gateErr == nil {
			gateErr = fmt.Errorf("warm re-analysis at scale %d cost %.2fx of cold (threshold %.2fx)",
				sc, ratio, warmRatioThreshold)
		}
		byScale[strconv.Itoa(sc)] = rows
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(byScale); err != nil {
			return exitcode.Failure, err
		}
	}
	if gateErr != nil {
		return exitcode.Failure, gateErr
	}
	if !asJSON {
		fmt.Println("incremental ok")
	}
	return exitcode.OK, nil
}

// runPerfDiff re-runs Table 2 at the smallest scale recorded in the seed
// file and compares total FSAM wall time. Per-benchmark times at small
// scales are milliseconds-noisy, so the gate is on the suite total; the
// per-benchmark deltas are printed for diagnosis. Exits 1 when the total
// regresses by more than 25%.
func runPerfDiff(path string, timeout time.Duration, cfg fsam.Config) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return exitcode.Failure, err
	}
	var seed seedFile
	if err := json.Unmarshal(data, &seed); err != nil {
		return exitcode.Failure, fmt.Errorf("%s: %w", path, err)
	}
	if len(seed.Scales) == 0 {
		return exitcode.Failure, fmt.Errorf("%s: no scales recorded", path)
	}
	sc := seed.Scales[0]
	base := seed.Table2[strconv.Itoa(sc)]
	if len(base) == 0 {
		return exitcode.Failure, fmt.Errorf("%s: no table2 rows at scale %d", path, sc)
	}
	rows, err := harness.RunTable2(sc, timeout, cfg)
	if err != nil {
		return exitcode.Failure, err
	}
	baseBy := map[string]time.Duration{}
	var baseTotal time.Duration
	for _, r := range base {
		baseBy[r.Name] = r.FSAMTime
		baseTotal += r.FSAMTime
	}
	var nowTotal time.Duration
	fmt.Printf("perf diff vs %s (scale %d, engine %s)\n", path, sc, cfg.Normalize().Engine)
	fmt.Printf("%-14s %12s %12s %8s\n", "benchmark", "seed(s)", "now(s)", "ratio")
	for _, r := range rows {
		nowTotal += r.FSAMTime
		b, ok := baseBy[r.Name]
		if !ok || b <= 0 {
			fmt.Printf("%-14s %12s %12.3f %8s\n", r.Name, "-", r.FSAMTime.Seconds(), "new")
			continue
		}
		fmt.Printf("%-14s %12.3f %12.3f %7.2fx\n",
			r.Name, b.Seconds(), r.FSAMTime.Seconds(), float64(r.FSAMTime)/float64(b))
	}
	ratio := float64(nowTotal) / float64(baseTotal)
	fmt.Printf("%-14s %12.3f %12.3f %7.2fx (threshold %.2fx)\n",
		"TOTAL", baseTotal.Seconds(), nowTotal.Seconds(), ratio, perfDiffThreshold)
	if ratio > perfDiffThreshold {
		return exitcode.Failure, fmt.Errorf("total wall time regressed %.2fx over seed (threshold %.2fx)", ratio, perfDiffThreshold)
	}
	fmt.Println("perf diff ok")
	return exitcode.OK, nil
}
