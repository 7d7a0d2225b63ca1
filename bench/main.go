// Command bench is the repository benchmark. It builds the program
// binaries, runs one or all of four workloads, checks every output against
// stored digests, and prints the metrics as one JSON object on the last
// line of standard output.
//
//	go run . -root .. -workload suite_analyze -seed 1 -seconds 20 -trace 0
//
// Workloads: suite_analyze and thread_dense (fsam -globals processes),
// suite_check (fsamcheck -format sarif processes) and service_mix (open-loop
// HTTP load on one fsamd process). With -trace 1 the run reports per-layer
// numbers instead, from spans the benchmark records around its calls into
// each layer. See README.md for the workloads, metrics and protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func newResult() *Result { return &Result{Correct: true, Metrics: map[string]Metric{}} }

func (r *Result) set(name, unit string, v float64) { r.Metrics[name] = Metric{Value: v, Unit: unit} }

func (r *Result) tally(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if t.failed > 0 {
		r.Correct = false
	}
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"latency_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"compile.ms", "ms"}, {"compile.stmts", "count"},
		{"andersen.ms", "ms"}, {"andersen.pops", "count"}, {"andersen.alloc_mb", "MB"},
		{"icfg.ms", "ms"},
		{"threads.ms", "ms"}, {"threads.count", "count"},
		{"mhp.ms", "ms"}, {"mhp.iterations", "count"},
		{"locks.ms", "ms"}, {"locks.spans", "count"},
		{"escape.ms", "ms"}, {"escape.shared", "count"}, {"escape.pruned", "count"},
		{"vfg.ms", "ms"}, {"vfg.oblivious_edges", "count"}, {"vfg.thread_edges", "count"}, {"vfg.alloc_mb", "MB"},
		{"core.ms", "ms"}, {"core.pops", "count"}, {"core.unique_sets", "count"}, {"core.dedup_ratio", "ratio"},
	}
	for _, id := range checkerIDs {
		defs = append(defs, metricDef{"checkers." + id + ".ms", "ms"})
	}
	defs = append(defs,
		metricDef{"checkers.findings", "count"}, metricDef{"diag.sarif.ms", "ms"},
		metricDef{"delta.ms", "ms"}, metricDef{"delta.noop", "count"}, metricDef{"delta.iso", "count"},
		metricDef{"delta.semantic", "count"}, metricDef{"facts.hit_ratio", "ratio"},
		metricDef{"server.handler_p50_ms", "ms"}, metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.analyses", "count"}, metricDef{"server.dedup", "count"}, metricDef{"server.shed", "count"},
	)
	for _, p := range serverPhases {
		defs = append(defs, metricDef{"server.phase." + p + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"svc.gen_lag_p99_ms", "ms"}, metricDef{"svc.requests", "count"},
		metricDef{"svc.p50_ms", "ms"}, metricDef{"svc.tail_ms", "ms"},
		metricDef{"svc.hit_p50_ms", "ms"},
		metricDef{"svc.cold_p50_ms", "ms"}, metricDef{"svc.delta_p50_ms", "ms"},
		metricDef{"svc.query_p50_ms", "ms"}, metricDef{"svc.recoveries", "count"},
	)
	for _, e := range ladderEngines {
		defs = append(defs, metricDef{"ladder." + e + ".ms", "ms"})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%"})
}()

// checkerIDs and serverPhases are spelled out rather than read from the
// registry so that the metric list, and so BENCHMARK.json, cannot change
// without an edit here.
var (
	checkerIDs = []string{"race", "deadlock", "leak", "uaf", "doublefree", "pthread",
		"racypub", "localonlylock", "unsyncshared", "escapeleak"}
	serverPhases = []string{"compile", "preanalysis", "threadmodel", "interleave",
		"locks", "escape", "defuse", "sparse"}
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"suite_analyze", "suite_check", "thread_dense", "service_mix"}

// runConfig is what every workload run shares.
type runConfig struct {
	root, build string
	seed        int64
	seconds     time.Duration
	traced      bool
	tiny        bool
	calibrate   bool
	exp         *expectations
}

func (c *runConfig) binDir() string { return filepath.Join(c.build, "bin") }

// runWorkload runs one workload once.
func runWorkload(c *runConfig, name string) (*Result, error) {
	var (
		res *Result
		err error
	)
	if name == "service_mix" {
		res, err = runService(c)
	} else {
		for _, w := range cliWorkloads {
			if w.name != name {
				continue
			}
			if c.traced {
				res, err = tracedCLI(c, w)
			} else {
				res, err = runCLI(c, w)
			}
		}
	}
	if res == nil && err == nil {
		err = fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			res.set(d.name, d.unit, 0)
		}
	}
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadF = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed      = fs.Int64("seed", 1, "workload seed (input order, schedules, arrivals)")
		seconds   = fs.Int("seconds", 20, "measurement window per workload run, in seconds")
		traceF    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		sets      = fs.Int("sets", 1, "run each workload this many times and print each metric's spread against its bound")
		root      = fs.String("root", ".", "repository root (holds go.mod and BENCHMARK.json)")
		tiny      = fs.Bool("tiny", false, "smallest inputs, for the smoke test")
		update    = fs.Bool("update-expected", false, "record output digests into bench/expected instead of checking them")
		calibrate = fs.Bool("calibrate", false, "service_mix: send back to back to measure capacity")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceF != 0 && *traceF != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	names := workloadNames
	if *workloadF != "all" {
		names = []string{*workloadF}
	}
	c := &runConfig{
		root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceF == 1, tiny: *tiny, calibrate: *calibrate,
	}
	c.build = os.Getenv("CARGO_TARGET_DIR")
	if c.build == "" {
		c.build = filepath.Join(c.root, ".bench_build")
	}
	var err error
	if c.build, err = filepath.Abs(c.build); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c.exp, err = loadExpected(filepath.Join(c.root, "bench", "expected", "digests.json"), *update)
	if err == nil {
		err = buildPrograms(c.root, c.binDir())
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	var bounds map[string]float64
	if *sets > 1 {
		if bounds, err = loadBounds(filepath.Join(c.root, "BENCHMARK.json")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	final := newResult()
	for _, name := range names {
		var runs []*Result
		for set := 0; set < *sets; set++ {
			res, err := runWorkload(c, name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			runs = append(runs, res)
			if len(names) > 1 || *sets > 1 {
				line, _ := json.Marshal(res)
				fmt.Fprintf(stdout, "%s set %d: %s\n", name, set+1, line)
			}
		}
		res := combineSets(runs)
		if *sets > 1 && !c.traced {
			printSpreads(stdout, name, runs, bounds)
		}
		if len(names) == 1 {
			final = res
			continue
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			final.Metrics[name+"."+k] = m
		}
	}
	if *update {
		if err := c.exp.save(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// combineSets folds repeated runs into one result: per-metric medians,
// summed counts.
func combineSets(runs []*Result) *Result {
	if len(runs) == 1 {
		return runs[0]
	}
	out := newResult()
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for name, m := range runs[0].Metrics {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[name].Value)
		}
		out.set(name, m.Unit, median(xs))
	}
	return out
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return out, nil
}

// printSpreads prints each bounded metric's relative spread over the sets,
// (max - min) / median, against its bound.
func printSpreads(w io.Writer, name string, runs []*Result, bounds map[string]float64) {
	for _, d := range endToEnd {
		bound, ok := bounds[d.name]
		if !ok {
			continue
		}
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[d.name].Value)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		spread := 0.0
		if m := median(xs); m > 0 {
			spread = (hi - lo) / m
		}
		verdict := "ok"
		if spread > bound {
			verdict = "OVER BOUND"
		}
		fmt.Fprintf(w, "%s %-16s spread %6.2f%% of median over %d sets, bound %4.1f%%: %s\n",
			name, d.name, 100*spread, len(runs), 100*bound, verdict)
	}
}
