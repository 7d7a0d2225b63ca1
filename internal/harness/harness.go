// Package harness regenerates the paper's evaluation artifacts — Table 1
// (benchmark statistics), Table 2 (analysis time and memory of FSAM vs
// NONSPARSE) and Figure 12 (slowdown of FSAM with each thread-interference
// phase disabled) — over the synthetic workload suite. It is shared by the
// fsambench command and the testing.B benchmarks in bench_test.go.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	fsam "repro"
	"repro/internal/pipeline"
	"repro/internal/solver"
	"repro/internal/workload"
)

// DefaultScale reproduces the paper's qualitative results in seconds.
const DefaultScale = 4

// DefaultTimeout stands in for the paper's two-hour NONSPARSE budget.
const DefaultTimeout = 30 * time.Second

// Table1Row is one line of Table 1. The JSON tags are the schema of
// `fsambench -table1 -json`.
type Table1Row struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	PaperLOC    int    `json:"paper_loc"`
	GenLOC      int    `json:"gen_loc"`
	Stmts       int    `json:"stmts"`
	Functions   int    `json:"functions"`
	Pointers    int    `json:"pointers"`
}

// RunTable1 computes benchmark statistics.
func RunTable1(scale int) []Table1Row {
	var rows []Table1Row
	for _, spec := range workload.Suite {
		src := workload.GenerateSpec(spec, scale)
		row := Table1Row{
			Name:        spec.Name,
			Description: spec.Description,
			PaperLOC:    spec.PaperLOC,
			GenLOC:      workload.LOC(src),
		}
		if prog, err := pipeline.Compile(spec.Name, src); err == nil {
			row.Stmts = prog.NumStmts()
			row.Functions = len(prog.Funcs)
			row.Pointers = len(prog.Vars)
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Program statistics (scaled reproduction)\n")
	fmt.Fprintf(w, "%-14s %-38s %9s %7s %7s %6s %9s\n",
		"Benchmark", "Description", "PaperLOC", "GenLOC", "Stmts", "Funcs", "Pointers")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-38s %9d %7d %7d %6d %9d\n",
			r.Name, r.Description, r.PaperLOC, r.GenLOC, r.Stmts, r.Functions, r.Pointers)
		total += r.GenLOC
	}
	fmt.Fprintf(w, "%-14s %-38s %9d %7d\n", "Total", "", 380659, total)
}

// FSAMStats is the FSAM half of a Table 2 row, factored out so every
// consumer of per-run statistics — the bench tables, the fsamd service's
// analyze responses — shares one JSON schema instead of re-deriving fields
// from fsam.Analysis. Embedded in Table2Row, its fields flatten into the
// historical `fsambench -json` schema unchanged.
type FSAMStats struct {
	FSAMTime       time.Duration `json:"fsam_ns"`
	FSAMBytes      uint64        `json:"fsam_bytes"`
	FSAMUniqueSets int           `json:"fsam_unique_sets"`
	FSAMSetRefs    int           `json:"fsam_set_refs"`
	FSAMDedup      float64       `json:"fsam_dedup_ratio"`
	FSAMOOT        bool          `json:"fsam_oot"`
	FSAMEngine     string        `json:"fsam_engine,omitempty"`
	FSAMPrecision  string        `json:"fsam_precision"`
	FSAMDegraded   string        `json:"fsam_degraded,omitempty"`
	// Thread-escape classification counters (zero on engines whose DAG
	// builds no thread model); FSAMEscapePruned counts interference edges
	// the escape oracle let every prune site skip.
	FSAMEscapeLocal     int `json:"fsam_escape_local,omitempty"`
	FSAMEscapeHandedOff int `json:"fsam_escape_handedoff,omitempty"`
	FSAMEscapeShared    int `json:"fsam_escape_shared,omitempty"`
	FSAMEscapePruned    int `json:"fsam_escape_pruned,omitempty"`
}

// StatsOf extracts the shared statistics view from a completed (possibly
// nil, possibly degraded) analysis. elapsed is the caller-observed wall
// time of the whole run; oot marks a deadline that expired before any tier
// completed.
func StatsOf(a *fsam.Analysis, elapsed time.Duration, oot bool) FSAMStats {
	st := FSAMStats{FSAMTime: elapsed, FSAMOOT: oot}
	if a != nil {
		st.FSAMBytes = a.Stats.Bytes
		st.FSAMUniqueSets = a.Stats.UniqueSets
		st.FSAMSetRefs = a.Stats.SetRefs
		st.FSAMDedup = a.Stats.DedupRatio
		st.FSAMEngine = a.Engine
		st.FSAMPrecision = a.Precision.String()
		st.FSAMDegraded = a.Stats.Degraded
		st.FSAMEscapeLocal = a.Stats.EscapeLocal
		st.FSAMEscapeHandedOff = a.Stats.EscapeHandedOff
		st.FSAMEscapeShared = a.Stats.EscapeShared
		st.FSAMEscapePruned = a.Stats.EscapePrunedEdges
	}
	return st
}

// Table2Row is one line of Table 2. The JSON tags are the schema of
// `fsambench -json`, which the BENCH trajectory consumes; the unique-set
// and dedup-ratio fields are the guardrail that interning keeps sharing
// sets (ratio > 1).
type Table2Row struct {
	Name string `json:"name"`
	FSAMStats
	NSTime       time.Duration `json:"nonsparse_ns"`
	NSBytes      uint64        `json:"nonsparse_bytes"`
	NSUniqueSets int           `json:"nonsparse_unique_sets"`
	NSSetRefs    int           `json:"nonsparse_set_refs"`
	NSDedup      float64       `json:"nonsparse_dedup_ratio"`
	NSOOT        bool          `json:"nonsparse_oot"`
}

// RunFSAM analyzes one generated benchmark with the engine cfg selects.
// timeout <= 0 disables the deadline. A deadline that expires before the
// pre-analysis completes — or, under cfg.NoDegrade, before the engine's
// solve converges — returns the partial Analysis together with an error
// for which pipeline.ErrCancelled is true; otherwise a later failure
// (deadline, budget, panic) is absorbed by the degradation ladder, landing
// in Analysis.Precision/Stats.Degraded with a nil error. Compile failures
// are returned, not panicked.
func RunFSAM(spec workload.Spec, scale int, cfg fsam.Config, timeout time.Duration) (*fsam.Analysis, time.Duration, error) {
	src := workload.GenerateSpec(spec, scale)
	prog, err := pipeline.Compile(spec.Name, src)
	if err != nil {
		return nil, 0, fmt.Errorf("workload %s does not compile: %w", spec.Name, err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	t0 := time.Now()
	a, err := fsam.AnalyzeProgramCtx(ctx, prog, cfg)
	return a, time.Since(t0), err
}

// RunTable2 measures every benchmark under FSAM with cfg (the zero Config
// reproduces the paper's setup; MemBudgetBytes/StepLimit exercise the
// degradation ladder) and under the NONSPARSE baseline with the defaults.
// The timeout budget applies to each analysis independently; a run that
// exceeds it becomes an OOT row rather than an error, and a run the ladder
// degraded carries its tier in FSAMPrecision with the reason in
// FSAMDegraded.
func RunTable2(scale int, timeout time.Duration, cfg fsam.Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range workload.Suite {
		a, ft, err := RunFSAM(spec, scale, cfg, timeout)
		fsamOOT := false
		if err != nil {
			if !pipeline.ErrCancelled(err) {
				return nil, err
			}
			fsamOOT = true
		}
		row := Table2Row{Name: spec.Name, FSAMStats: StatsOf(a, ft, fsamOOT)}
		// The ladder is off so a run that misses its deadline is an OOT
		// row, not an Andersen-degraded one.
		b, nt, err := RunFSAM(spec, scale, fsam.Config{Engine: "nonsparse", NoDegrade: true}, timeout)
		if err != nil {
			if !pipeline.ErrCancelled(err) {
				return nil, fmt.Errorf("workload %s baseline: %w", spec.Name, err)
			}
			row.NSOOT = true
		}
		row.NSTime = nt
		row.NSBytes = b.Stats.Bytes
		row.NSUniqueSets = b.Stats.UniqueSets
		row.NSSetRefs = b.Stats.SetRefs
		row.NSDedup = b.Stats.DedupRatio
		rows = append(rows, row)
	}
	return rows, nil
}

// EngineRow is one cell of the engine comparison matrix: one benchmark
// analyzed by one engine. AliasPairs is the precision metric —
// the number of may-aliasing pairs among the program's distinct load/store
// address variables — which the soundness ordering makes monotone: sparse
// FSAM admits the fewest pairs, Andersen the most, cfgfree in between.
// The JSON tags are the schema of `fsambench -engines -json`.
type EngineRow struct {
	Name       string        `json:"name"`
	Engine     string        `json:"engine"`
	Time       time.Duration `json:"time_ns"`
	Bytes      uint64        `json:"bytes"`
	AliasPairs int           `json:"alias_pairs"`
	Precision  string        `json:"precision"`
	Degraded   string        `json:"degraded,omitempty"`
	OOT        bool          `json:"oot"`
	// Rounds is the thread-modular engine's interference round count
	// (zero for engines without an interference fixpoint).
	Rounds int `json:"interference_rounds,omitempty"`
	// EscapeShared and EscapePruned summarize the thread-escape
	// classification of the run: how many abstract objects ended up
	// Shared, and how many interference edges/publications/pairs the
	// sharedness oracle pruned. Zero for engines without a thread model.
	EscapeShared int `json:"escape_shared,omitempty"`
	EscapePruned int `json:"escape_pruned,omitempty"`
}

// RunEngineMatrix measures every benchmark under each named engine,
// reporting wall time, memory, and the alias-pair precision metric. An
// expired deadline is an OOT cell, not an error; a degraded run carries
// the landed tier. Empty engines defaults to the degradation ladder's
// rungs (every on-ladder engine, most precise first).
func RunEngineMatrix(scale int, timeout time.Duration, engines []string) ([]EngineRow, error) {
	if len(engines) == 0 {
		engines = fsam.LadderEngines()
	}
	var rows []EngineRow
	for _, spec := range workload.Suite {
		for _, eng := range engines {
			a, t, err := RunFSAM(spec, scale, fsam.Config{Engine: eng}, timeout)
			row := EngineRow{Name: spec.Name, Engine: eng, Time: t}
			if err != nil {
				if !pipeline.ErrCancelled(err) {
					return nil, fmt.Errorf("engine %s on %s: %w", eng, spec.Name, err)
				}
				row.OOT = true
			}
			if a != nil {
				row.Bytes = a.Stats.Bytes
				row.AliasPairs = a.AliasPairs()
				row.Precision = a.Precision.String()
				row.Degraded = a.Stats.Degraded
				row.Rounds = a.Stats.InterferenceRounds
				row.EscapeShared = a.Stats.EscapeShared
				row.EscapePruned = a.Stats.EscapePrunedEdges
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintEngineMatrix renders the engine comparison matrix grouped by
// benchmark, so the alias-pair ordering across engines reads line by line.
func PrintEngineMatrix(w io.Writer, rows []EngineRow) {
	fmt.Fprintf(w, "Engine comparison: wall time, memory, and alias-pair precision per backend\n")
	fmt.Fprintf(w, "%-14s %-10s %12s %12s %12s  %s\n",
		"Program", "Engine", "Time(s)", "Mem(MB)", "AliasPairs", "Tier")
	prev := ""
	for _, r := range rows {
		name := r.Name
		if name == prev {
			name = ""
		}
		prev = r.Name
		t := fmt.Sprintf("%12.3f", r.Time.Seconds())
		if r.OOT {
			t = fmt.Sprintf("%12s", "OOT")
		}
		extra := ""
		if r.Rounds > 0 {
			extra = fmt.Sprintf("  rounds=%d", r.Rounds)
		}
		if r.EscapeShared > 0 || r.EscapePruned > 0 {
			extra += fmt.Sprintf("  shared=%d pruned=%d", r.EscapeShared, r.EscapePruned)
		}
		fmt.Fprintf(w, "%-14s %-10s %s %12.2f %12d  %s%s\n",
			name, r.Engine, t, float64(r.Bytes)/1e6, r.AliasPairs, r.Precision, extra)
		if r.Degraded != "" {
			fmt.Fprintf(w, "%-14s   degraded: %s\n", "", r.Degraded)
		}
	}
}

// fsamFull reports whether the row's FSAM run completed at full precision
// (neither out of time nor degraded down the ladder).
func (r Table2Row) fsamFull() bool {
	return !r.FSAMOOT &&
		(r.FSAMPrecision == "" || r.FSAMPrecision == fsam.PrecisionSparseFS.String())
}

// PrintTable2 renders Table 2 with speedup/memory summary lines matching
// the paper's reporting style.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: Analysis time and memory usage\n")
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %9s %9s %s\n",
		"Program", "FSAM(s)", "NonSp(s)", "FSAM(MB)", "NonSp(MB)", "F-dedup", "NS-dedup", "Tier")
	var spSum, memSum float64
	var nBoth int
	for _, r := range rows {
		fs := fmt.Sprintf("%12.3f", r.FSAMTime.Seconds())
		fsm := fmt.Sprintf("%12.2f", float64(r.FSAMBytes)/1e6)
		ns := fmt.Sprintf("%12.3f", r.NSTime.Seconds())
		nsm := fmt.Sprintf("%12.2f", float64(r.NSBytes)/1e6)
		if r.FSAMOOT {
			fs = fmt.Sprintf("%12s", "OOT")
			fsm = fmt.Sprintf("%12s", "OOT")
		}
		if r.NSOOT {
			ns = fmt.Sprintf("%12s", "OOT")
			nsm = fmt.Sprintf("%12s", "OOT")
		}
		if r.fsamFull() && !r.NSOOT {
			spSum += r.NSTime.Seconds() / r.FSAMTime.Seconds()
			memSum += float64(r.NSBytes) / float64(r.FSAMBytes)
			nBoth++
		}
		tier := r.FSAMPrecision
		if tier == "" {
			tier = fsam.PrecisionSparseFS.String()
		}
		fmt.Fprintf(w, "%-14s %s %s %s %s %8.2fx %8.2fx %s\n",
			r.Name, fs, ns, fsm, nsm, r.FSAMDedup, r.NSDedup, tier)
		if r.FSAMDegraded != "" {
			fmt.Fprintf(w, "%-14s   degraded: %s\n", "", r.FSAMDegraded)
		}
	}
	if nBoth > 0 {
		fmt.Fprintf(w, "Average over programs analyzable by both: %.1fx faster, %.1fx less memory\n",
			spSum/float64(nBoth), memSum/float64(nBoth))
	}
	fmt.Fprintf(w, "(paper: 12x faster, 28x less memory; raytrace and x264 OOT for NonSparse)\n")
}

// Fig12Config names one ablation.
type Fig12Config struct {
	Label string
	Cfg   fsam.Config
}

// Fig12Configs are the paper's three configurations.
var Fig12Configs = []Fig12Config{
	{"No-Interleaving", fsam.Config{NoInterleaving: true}},
	{"No-Value-Flow", fsam.Config{NoValueFlow: true}},
	{"No-Lock", fsam.Config{NoLock: true}},
}

// Fig12Row holds the slowdown factors of one benchmark.
type Fig12Row struct {
	Name     string
	Baseline time.Duration
	// Slowdown[i] matches Fig12Configs[i].
	Slowdown [3]float64
	Times    [3]time.Duration
}

// resolutionTime is the quantity Figure 12 ratios: the cost of sparse
// points-to resolution, i.e. def-use graph construction plus the sparse
// solve — the stages that consume the interference-analysis results (the
// paper measures "the impact of each phase on the performance of sparse
// flow-sensitive points-to resolution").
func resolutionTime(a *fsam.Analysis) time.Duration {
	return a.Stats.Phase(solver.PhaseDefUse) + a.Stats.Phase(solver.PhaseSparse)
}

// fig12Reps repeats each measurement and keeps the minimum, damping noise
// at millisecond scale.
const fig12Reps = 3

func minResolution(spec workload.Spec, scale int, cfg fsam.Config) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < fig12Reps; i++ {
		a, _, err := RunFSAM(spec, scale, cfg, 0)
		if err != nil {
			return 0, err
		}
		t := resolutionTime(a)
		if best == 0 || t < best {
			best = t
		}
	}
	return best, nil
}

// RunFigure12 measures the ablation slowdowns.
func RunFigure12(scale int) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, spec := range workload.Suite {
		base, err := minResolution(spec, scale, fsam.Config{})
		if err != nil {
			return nil, err
		}
		row := Fig12Row{Name: spec.Name, Baseline: base}
		for i, c := range Fig12Configs {
			t, err := minResolution(spec, scale, c.Cfg)
			if err != nil {
				return nil, err
			}
			row.Times[i] = t
			row.Slowdown[i] = t.Seconds() / base.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure12 renders the ablation slowdowns as an ASCII chart.
func PrintFigure12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "Figure 12: Slowdown over FSAM with one interference phase disabled\n")
	fmt.Fprintf(w, "%-14s %16s %16s %16s\n", "Program",
		Fig12Configs[0].Label, Fig12Configs[1].Label, Fig12Configs[2].Label)
	var logSums [3]float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %15.2fx %15.2fx %15.2fx\n",
			r.Name, r.Slowdown[0], r.Slowdown[1], r.Slowdown[2])
		for i := range logSums {
			logSums[i] += math.Log(r.Slowdown[i])
		}
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(w, "%-14s %15.2fx %15.2fx %15.2fx\n", "GeoMean",
			math.Exp(logSums[0]/n), math.Exp(logSums[1]/n), math.Exp(logSums[2]/n))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s |%s\n", r.Name, bar(r.Slowdown[0])+bar(r.Slowdown[1])+bar(r.Slowdown[2]))
	}
	fmt.Fprintf(w, "(each group: %s / %s / %s; one # per 0.25x)\n",
		Fig12Configs[0].Label, Fig12Configs[1].Label, Fig12Configs[2].Label)
}

func bar(x float64) string {
	n := int(x * 4)
	if n > 60 {
		n = 60
	}
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n) + " "
}

// Percentiles returns the nearest-rank quantiles of samples for each q in
// (0, 1]. It copies and sorts; the input is untouched. Shared by the
// in-process benchmarks and `fsambench -server`, which reports
// client-observed service latency the same way.
func Percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		out[i] = sorted[rank-1]
	}
	return out
}
