package harness_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/harness"
	"repro/internal/workload"
)

func TestTable1(t *testing.T) {
	rows := harness.RunTable1(1)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GenLOC == 0 || r.Stmts == 0 || r.Functions == 0 {
			t.Errorf("%s: empty row %+v", r.Name, r)
		}
	}
	// Paper ordering of the first and last entries.
	if rows[0].Name != "word_count" || rows[9].Name != "x264" {
		t.Error("suite order must match the paper's Table 1")
	}
	var buf bytes.Buffer
	harness.PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "word_count") || !strings.Contains(buf.String(), "Total") {
		t.Error("rendered table incomplete")
	}
}

func TestTable2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := harness.RunTable2(1, 30*time.Second, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FSAMTime <= 0 || r.FSAMBytes == 0 {
			t.Errorf("%s: FSAM row empty", r.Name)
		}
		if !r.NSOOT {
			if r.NSTime < r.FSAMTime {
				t.Errorf("%s: baseline faster than FSAM (%v < %v)", r.Name, r.NSTime, r.FSAMTime)
			}
			if r.NSBytes < r.FSAMBytes {
				t.Errorf("%s: baseline smaller than FSAM", r.Name)
			}
		}
	}
	var buf bytes.Buffer
	harness.PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Average") {
		t.Error("summary line missing")
	}
}

func TestFigure12Render(t *testing.T) {
	// Rendering only (running the full ablations is covered by the bench
	// and the fsambench command); construct synthetic rows.
	rows := []harness.Fig12Row{
		{Name: "demo", Slowdown: [3]float64{1.2, 8.5, 1.1}},
	}
	var buf bytes.Buffer
	harness.PrintFigure12(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "No-Value-Flow") {
		t.Errorf("render: %s", out)
	}
}

func TestRunFSAMAndNonSparse(t *testing.T) {
	spec, ok := workload.ByName("word_count")
	if !ok {
		t.Fatal("no spec")
	}
	a, d, err := harness.RunFSAM(spec, 1, fsam.Config{}, 0)
	if err != nil || a == nil || d <= 0 {
		t.Fatalf("RunFSAM: %v", err)
	}
	b, d2, err := harness.RunFSAM(spec, 1, fsam.Config{Engine: "nonsparse", NoDegrade: true}, 30*time.Second)
	if err != nil || b == nil || d2 <= 0 || b.Engine != "nonsparse" {
		t.Fatalf("RunFSAM(nonsparse): %v", err)
	}
}

func TestTable1PointersRendered(t *testing.T) {
	rows := harness.RunTable1(1)
	for _, r := range rows {
		if r.Pointers == 0 {
			t.Errorf("%s: Pointers not populated", r.Name)
		}
	}
	var buf bytes.Buffer
	harness.PrintTable1(&buf, rows)
	header := strings.SplitN(buf.String(), "\n", 3)[1]
	if !strings.Contains(header, "Pointers") {
		t.Errorf("header lacks Pointers column: %q", header)
	}
}

// TestPercentiles pins the nearest-rank definition the fleet drill's
// client-observed latency uses.
func TestPercentiles(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	samples := []time.Duration{ms(9), ms(1), ms(5), ms(3), ms(7)} // unsorted on purpose
	got := harness.Percentiles(samples, 0, 0.5, 0.9, 0.99, 1)
	want := []time.Duration{ms(1), ms(5), ms(9), ms(9), ms(9)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("percentile %d: got %s, want %s", i, got[i], want[i])
		}
	}
	// The input must not be reordered.
	if samples[0] != ms(9) || samples[4] != ms(7) {
		t.Errorf("Percentiles mutated its input: %v", samples)
	}
	if got := harness.Percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty sample p50 = %s, want 0", got[0])
	}
	one := harness.Percentiles([]time.Duration{ms(4)}, 0.5, 0.99)
	if one[0] != ms(4) || one[1] != ms(4) {
		t.Errorf("single sample percentiles = %v, want all 4ms", one)
	}
}
