package fsam_test

// Work-counter golden for the default configuration: for every fixture and
// every suite program at scales 1 and 4, the deterministic size and work
// counters of each layer — compiled statements, Andersen pops, threads,
// MHP iterations, lock spans, escape classes and the interference work the
// escape oracle skipped, def-use edges and hubs, logical and physical
// def-use nodes, and the sparse solve's pops — are pinned in
// testdata/work_counters.golden. These counts are the exact form of a perf
// gate: a change that makes any layer do more work moves a line, with no
// timing noise to hide it. Regenerate after an intended change with:
//
//	go test . -run TestWorkCountersGolden -update-golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/workload"
)

// workCounters renders one default-config run's layer counters.
func workCounters(t *testing.T, name, src string) string {
	t.Helper()
	a, err := fsam.AnalyzeSource(name, src, fsam.Config{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if a.Stats.Degraded != "" {
		t.Fatalf("%s degraded: %s", name, a.Stats.Degraded)
	}
	s := a.Stats
	return fmt.Sprintf("%s stmts=%d prepops=%d threads=%d mhp=%d spans=%d"+
		" esc=%d/%d/%d pruned=%d oblivious=%d thread=%d stored=%d hubs=%d"+
		" logical=%d nodes=%d pops=%d\n",
		name, s.Stmts, s.PrePops, s.Threads, a.MHP.Iterations, s.LockSpans,
		s.EscapeLocal, s.EscapeHandedOff, s.EscapeShared, s.EscapePrunedEdges,
		s.ObliviousEdges, s.ThreadEdges, s.StoredThreadEdges, s.ThreadHubs,
		len(a.Graph.Rep), len(a.Graph.Nodes), s.SolvePops)
}

func TestWorkCountersGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(workCounters(t, filepath.ToSlash(path), string(src)))
	}
	for _, scale := range []int{1, 4} {
		for _, spec := range workload.Suite {
			b.WriteString(workCounters(t, fmt.Sprintf("%s@%d", spec.Name, scale),
				workload.GenerateSpec(spec, scale)))
		}
	}
	checkGolden(t, filepath.Join("testdata", "work_counters.golden"), []byte(b.String()))
}
