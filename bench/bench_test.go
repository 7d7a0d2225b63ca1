package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at its smallest size, untraced and traced,
// and checks the output against BENCHMARK.json: every declared metric is
// emitted for every workload with its declared unit and a finite value,
// and no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace string
		defs  []def
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"-root", "..", "-workload", "all", "-tiny", "-seconds", "1", "-trace", tc.trace}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d\n%s",
				tc.trace, res.Correct, res.Attempted, res.Failed, errOut.String())
		}
		for _, w := range workloadNames {
			for _, d := range tc.defs {
				m, ok := res.Metrics[w+"."+d.Name]
				switch {
				case !ok:
					t.Errorf("trace %s: %s emits no %s", tc.trace, w, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("trace %s: %s %s unit %q, BENCHMARK.json says %q", tc.trace, w, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("trace %s: %s %s = %v", tc.trace, w, d.Name, m.Value)
				}
			}
		}
		if want := len(workloadNames) * len(tc.defs); len(res.Metrics) != want {
			t.Errorf("trace %s: %d metrics emitted, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), want)
		}
	}
}
