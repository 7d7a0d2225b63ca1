package race_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pts"
	"repro/internal/race"
	"repro/internal/randprog"
	"repro/internal/threads"
	"repro/internal/workload"
)

// referenceDetect is the plain quadratic enumeration: every store against
// every load and store, intersecting the two address points-to sets per
// pair, with relevance and escape filtering applied to the intersection
// after the MHP/lock witness search. Detect must return exactly its
// reports.
func referenceDetect(d *race.Detector) []*race.Report {
	prog := d.Model.Prog
	addrPts := func(addr *ir.Var) *pts.Set {
		if d.Points != nil {
			if s := d.Points.PointsToVar(addr); !s.IsEmpty() {
				return s
			}
		}
		return d.Model.Pre.PointsToVar(addr)
	}
	protected := func(i1, i2 locks.Inst) bool {
		if d.Locks == nil {
			return false
		}
		for _, a := range d.Locks.SpansOf(i1) {
			for _, b := range d.Locks.SpansOf(i2) {
				if a.LockObj == b.LockObj {
					return true
				}
			}
		}
		return false
	}
	addrOf := func(s ir.Stmt) *ir.Var {
		switch s := s.(type) {
		case *ir.Load:
			return s.Addr
		case *ir.Store:
			return s.Addr
		}
		return nil
	}

	var stores []*ir.Store
	var accesses []ir.Stmt
	for _, s := range prog.Stmts {
		switch s := s.(type) {
		case *ir.Store:
			stores = append(stores, s)
			accesses = append(accesses, s)
		case *ir.Load:
			accesses = append(accesses, s)
		}
	}
	var out []*race.Report
	for _, st := range stores {
		stPts := addrPts(st.Addr)
		for _, acc := range accesses {
			if acc == ir.Stmt(st) {
				continue
			}
			if st2, ok := acc.(*ir.Store); ok && st2.ID() < st.ID() {
				continue
			}
			common := stPts.Intersect(addrPts(addrOf(acc)))
			if common.IsEmpty() {
				continue
			}
			var witness *[2]mhp.ThreadCtx
			pairs := d.MHP.MHPInstances(st, acc)
			for i := range pairs {
				i1 := locks.Inst{Thread: pairs[i][0].Thread, Ctx: pairs[i][0].Ctx, Stmt: st}
				i2 := locks.Inst{Thread: pairs[i][1].Thread, Ctx: pairs[i][1].Ctx, Stmt: acc}
				if !protected(i1, i2) {
					witness = &pairs[i]
					break
				}
			}
			if witness == nil {
				continue
			}
			common.ForEach(func(id uint32) {
				obj := prog.Objects[id]
				switch obj.Root().Kind {
				case ir.ObjGlobal, ir.ObjHeap, ir.ObjStack:
				default:
					return
				}
				if d.Escape != nil && !d.Escape.IsShared(obj.ID) {
					return
				}
				out = append(out, &race.Report{
					Obj: obj, First: st, Second: acc,
					Threads: [2]*threads.Thread{witness[0].Thread, witness[1].Thread},
				})
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First.ID() != out[j].First.ID() {
			return out[i].First.ID() < out[j].First.ID()
		}
		if out[i].Second.ID() != out[j].Second.ID() {
			return out[i].Second.ID() < out[j].Second.ID()
		}
		return out[i].Obj.ID < out[j].Obj.ID
	})
	return out
}

// reportKeys renders the (First, Second, Obj, Threads) sequence.
func reportKeys(rs []*race.Report) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %d %d %d %d\n",
			r.First.ID(), r.Second.ID(), r.Obj.ID, r.Threads[0].ID, r.Threads[1].ID)
	}
	return b.String()
}

// checkAgainstReference analyzes src and compares Detect with the
// reference enumeration, with the escape oracle unset and set. It returns
// the number of reports.
func checkAgainstReference(t *testing.T, name, src string) int {
	t.Helper()
	a, err := fsam.AnalyzeSource(name, src, fsam.Config{})
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	if a.Result == nil || a.MHP == nil {
		t.Fatalf("%s: no full-precision result (%s)", name, a.Precision)
	}
	var prev string
	for i, esc := range []bool{false, true} {
		d := &race.Detector{Model: a.Base.Model, MHP: a.MHP, Locks: a.Locks, Points: a.Result}
		if esc {
			d.Escape = a.EscapeResult()
		}
		got, want := reportKeys(d.Detect()), reportKeys(referenceDetect(d))
		if got != want {
			t.Fatalf("%s (escape=%v): Detect differs from reference\n--- Detect ---\n%s--- reference ---\n%s",
				name, esc, got, want)
		}
		if i > 0 && got != prev {
			t.Fatalf("%s: escape pruning changed the reports\n--- off ---\n%s--- on ---\n%s", name, prev, got)
		}
		prev = got
	}
	return strings.Count(prev, "\n")
}

func TestDetectMatchesReferenceCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	total := 0
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		total += checkAgainstReference(t, filepath.Base(p), string(src))
	}
	if total == 0 {
		t.Error("no races reported across the fixture corpus")
	}
}

func TestDetectMatchesReferenceSuite(t *testing.T) {
	for _, spec := range workload.Suite {
		if checkAgainstReference(t, spec.Name, workload.GenerateSpec(spec, 1)) == 0 {
			t.Logf("%s: no races", spec.Name)
		}
	}
}

func TestDetectMatchesReferenceRandom(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	total := 0
	for seed := int64(0); seed < seeds; seed++ {
		total += checkAgainstReference(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3))
	}
	if total == 0 {
		t.Error("no races reported on any random threaded program")
	}
}

// detectSink keeps the benchmarked call's result alive.
var detectSink []*race.Report

// BenchmarkDetect times race.Detect alone on the two largest suite
// programs; the analysis is set up outside the timer.
func BenchmarkDetect(b *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		b.Run(name, func(b *testing.B) {
			src, err := workload.Generate(name, 3)
			if err != nil {
				b.Fatal(err)
			}
			a, err := fsam.AnalyzeSource(name+".mc", src, fsam.Config{})
			if err != nil {
				b.Fatal(err)
			}
			d := &race.Detector{Model: a.Base.Model, MHP: a.MHP, Locks: a.Locks,
				Points: a.Result, Escape: a.EscapeResult()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				detectSink = d.Detect()
			}
		})
	}
}
