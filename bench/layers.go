package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	fsam "repro"
	"repro/bench/trace"
	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pipeline"
	"repro/internal/vfg"
)

// tracedRounds is how many times the traced run walks the layer chain per
// input; per-layer numbers are per-input medians over these rounds.
const tracedRounds = 3

// ladderEngines are the fallback engines the traced analysis runs time.
var ladderEngines = []string{"tmod", "cfgfree", "andersen"}

// chain runs the fsam pipeline one layer at a time through each layer's
// public entry point, in stage order and sequentially, each call inside a
// span under root. It returns the per-layer counts of this input (layer
// times are read off the spans) and the output the CLI would print: the
// -globals listing, or the SARIF log when withCheckers.
func chain(ctx context.Context, rec *trace.Recorder, root *trace.Span, in input, withCheckers bool) (map[string]float64, []byte, error) {
	m := map[string]float64{}
	layer := func(name string, f func(*trace.Span) error) error {
		s, err := rec.Do(root.Trace, root, name, f)
		for k, v := range s.Counts {
			if k == "alloc_bytes" {
				m[name+".alloc_mb"] = v / (1 << 20)
			} else {
				m[name+"."+k] = v
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %s: %w", in.Key, name, err)
		}
		return nil
	}

	var (
		prog *ir.Program
		pre  *andersen.Result
		base *pipeline.Base
		il   *mhp.Result
		lk   *locks.Result
		esc  *escape.Result
		g    *vfg.Graph
		res  *core.Result
	)
	steps := []struct {
		name string
		f    func(*trace.Span) error
	}{
		{"compile", func(s *trace.Span) (err error) {
			prog, err = pipeline.Compile(in.File, in.Src)
			if err == nil {
				s.Set("stmts", float64(prog.NumStmts()))
			}
			return err
		}},
		{"andersen", func(s *trace.Span) (err error) {
			pre, err = andersen.AnalyzeCtx(ctx, prog)
			if err == nil {
				s.Set("pops", float64(pre.Pops))
			}
			return err
		}},
		{"icfg", func(*trace.Span) (err error) {
			base, err = pipeline.BuildPreFrom(ctx, pre, callgraph.DefaultMaxDepth)
			return err
		}},
		{"threads", func(s *trace.Span) error {
			base.BuildThreadModel()
			s.Set("count", float64(len(base.Model.Threads)))
			return nil
		}},
		{"mhp", func(s *trace.Span) (err error) {
			il, err = mhp.AnalyzeCtx(ctx, base.Model)
			if err == nil {
				s.Set("iterations", float64(il.Iterations))
			}
			return err
		}},
		{"locks", func(s *trace.Span) error {
			lk = locks.Analyze(base.Model)
			s.Set("spans", float64(lk.NumSpans()))
			return nil
		}},
		{"escape", func(s *trace.Span) error {
			esc = escape.Analyze(base.Model)
			s.Set("shared", float64(esc.NumShared))
			return nil
		}},
		// The options solver.DefUsePhase passes for the default config.
		{"vfg", func(s *trace.Span) (err error) {
			g, err = vfg.BuildCtx(ctx, base.Model, vfg.Options{Interleave: il, Locks: lk, Escape: esc})
			if err == nil {
				s.Set("oblivious_edges", float64(g.ObliviousEdges))
				s.Set("thread_edges", float64(g.ThreadEdges))
			}
			return err
		}},
		{"core", func(s *trace.Span) (err error) {
			res, err = core.SolveCtx(ctx, base.Model, g)
			if err == nil {
				rs := res.InternStats()
				s.Set("pops", float64(res.Iterations))
				s.Set("unique_sets", float64(rs.Unique))
				s.Set("dedup_ratio", rs.DedupRatio())
			}
			return err
		}},
	}
	for _, st := range steps {
		if err := layer(st.name, st.f); err != nil {
			return m, nil, err
		}
	}
	m["escape.pruned"] = float64(g.FilteredByEscape)

	if !withCheckers {
		return m, globalsListing(prog, func(o *ir.Object) []string {
			return objNames(prog, res.ObjAtExit(prog.Main, o).ForEach)
		}), nil
	}

	// The Facts bundle fsam.Analysis hands the checker registry for a
	// full-precision result.
	facts := &checkers.Facts{
		File: in.File, Prog: prog, Model: base.Model, MHP: il, Locks: lk,
		Points: res, Pre: pre, Reachable: base.CG.Reachable,
		FullPrecision: true, PrecisionNote: fsam.PrecisionSparseFS.String(),
		MemModel: fsam.DefaultMemModel, Escape: esc,
	}
	var diags []diag.Diagnostic
	for _, id := range checkers.IDs() {
		err := layer("checkers."+id, func(*trace.Span) error {
			r, err := checkers.Run(facts, id)
			if err == nil {
				diags = append(diags, r.Diags...)
			}
			return err
		})
		if err != nil {
			return m, nil, err
		}
	}
	diags, _ = diag.ParseSuppressions(in.Src).Filter(diags)
	m["checkers.findings"] = float64(len(diags))
	var out bytes.Buffer
	err := layer("diag.sarif", func(*trace.Span) error {
		diag.Sort(diags)
		return diag.WriteSARIF(&out, diags, checkers.Rules())
	})
	return m, out.Bytes(), err
}

// facadeRun computes the same output through the public facade, untraced:
// what the CLI does in-process.
func facadeRun(ctx context.Context, in input, withCheckers bool) ([]byte, error) {
	a, err := fsam.AnalyzeSourceCtx(ctx, in.File, in.Src, fsam.Config{})
	if err != nil {
		return nil, err
	}
	if !withCheckers {
		return globalsListing(a.Prog, func(o *ir.Object) []string {
			pt, _ := a.PointsToGlobal(o.Name)
			return pt
		}), nil
	}
	r, err := a.Diagnostics()
	if err != nil {
		return nil, err
	}
	diag.Sort(r.Diags)
	var out bytes.Buffer
	err = diag.WriteSARIF(&out, r.Diags, checkers.Rules())
	return out.Bytes(), err
}

// globalsListing renders `fsam -globals`: every global with a non-empty
// exit points-to set.
func globalsListing(prog *ir.Program, pt func(*ir.Object) []string) []byte {
	var b bytes.Buffer
	for _, o := range prog.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		if names := pt(o); len(names) > 0 {
			fmt.Fprintf(&b, "pt(%s) = {%s}\n", o.Name, strings.Join(names, ", "))
		}
	}
	return b.Bytes()
}

func objNames(prog *ir.Program, each func(func(uint32))) []string {
	var out []string
	each(func(id uint32) { out = append(out, prog.Objects[id].Name) })
	sort.Strings(out)
	return out
}

// tracedCLI is the per-layer run of a CLI workload: tracedRounds walks of
// the layer chain per input, plus, in the first round, the untraced facade
// run (for the digest comparison and the tracing overhead) and the ladder
// engines.
func tracedCLI(c *runConfig, w cliSpec) (*Result, error) {
	ins := w.inputs(c.tiny)
	res := newResult()
	rec := trace.New()
	rng := rand.New(rand.NewSource(c.seed))
	ctx := context.Background()
	var t tally

	samples := make([]map[string][]float64, len(ins))
	for i := range samples {
		samples[i] = map[string][]float64{}
	}
	var ratios []float64
	inputOf := map[string]int{} // trace ID -> input index
	host := newHostSpeed(c, 1)
	host.sample()
	for round := 1; round <= tracedRounds; round++ {
		for _, i := range rng.Perm(len(ins)) {
			in := ins[i]
			root := rec.Start(fmt.Sprintf("%s/%s/%d", w.name, in.Key, round), nil, "program")
			inputOf[root.Trace] = i
			m, out, err := chain(ctx, rec, root, in, w.checkers)
			rec.End(root)
			key := w.name + "/" + in.Key
			if err == nil {
				// fsam exits 0 at full precision; fsamcheck exits 1 when it
				// reports findings.
				code := 0
				if m["checkers.findings"] > 0 {
					code = 1
				}
				err = c.exp.check(key, code, trace.Digest(out))
			}
			t.add(err)
			for k, v := range m {
				samples[i][k] = append(samples[i][k], v)
			}
			host.sample()
			if round != 1 {
				continue
			}
			f0 := time.Now()
			fout, err := facadeRun(ctx, in, w.checkers)
			facade := time.Since(f0)
			if err == nil {
				err = trace.CheckSame(key, trace.Digest(out), trace.Digest(fout))
			}
			t.add(err)
			ratios = append(ratios, float64(root.Duration())/float64(facade))
			if w.ladder {
				for _, eng := range ladderEngines {
					_, err := rec.Do(root.Trace, nil, "ladder."+eng, func(*trace.Span) error {
						a, err := fsam.AnalyzeSourceCtx(ctx, in.File, in.Src, fsam.Config{Engine: eng})
						if err == nil && a.Engine != eng {
							err = fmt.Errorf("%s: engine %s degraded to %s", in.Key, eng, a.Engine)
						}
						return err
					})
					t.add(err)
				}
			}
		}
	}

	// Every layer's time is its span's self time.
	spans := rec.Spans()
	self := trace.SelfTimes(spans)
	for _, s := range spans {
		if s.Name != "program" {
			i := inputOf[s.Trace]
			samples[i][s.Name+".ms"] = append(samples[i][s.Name+".ms"], ms(self[s.ID]))
		}
	}

	for _, pl := range perLayer {
		var per []float64
		for i := range ins {
			if xs := samples[i][pl.name]; len(xs) > 0 {
				per = append(per, median(xs))
			}
		}
		res.set(pl.name, pl.unit, aggregate(pl, per))
	}
	res.set("trace.overhead_pct", "%", 100*(geomean(ratios)-1))
	res.tally(t)
	if err := host.scale(res); err != nil {
		return nil, err
	}
	return res, c.writeSpans(rec, w.name)
}

// aggregate folds per-input medians into one per-layer number: ratios
// average over inputs, everything else sums.
func aggregate(pl metricDef, per []float64) float64 {
	total := 0.0
	for _, v := range per {
		total += v
	}
	if pl.unit == "ratio" && len(per) > 0 {
		return total / float64(len(per))
	}
	return total
}

// writeSpans writes the run's spans as JSON lines under the build
// directory.
func (c *runConfig) writeSpans(rec *trace.Recorder, workload string) error {
	dir := filepath.Join(c.build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: spans written to", path)
	return f.Close()
}
