package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestWrite pins the exposition: HELP and TYPE for every family in
// declaration order, integer samples with %d and float samples with %g,
// labeled series sorted by label values, and unlabeled counters shown at
// zero.
func TestWrite(t *testing.T) {
	var r Registry
	req := r.Counter("x_requests_total", "Requests.", "path", "code")
	idle := r.Counter("x_idle_total", "Never incremented.")
	secs := r.FloatCounter("x_seconds_total", "Seconds.", "phase")
	lat := r.Histogram("x_latency_seconds", "Latency.", []float64{0.1, 1})
	r.CounterFunc("x_big_total", "Large integer.", func() float64 { return 12345678 })
	r.FloatGaugeFunc("x_ratio", "Ratio.", func() float64 { return 0.25 })
	r.GaugeVecFunc("x_state", "State.", []string{"replica"}, func(emit func(float64, ...string)) {
		emit(1, "b")
		emit(0, "a")
	})
	req.Inc("/z", "200")
	req.Add(2, "/a", "404")
	req.Inc("/a", "200")
	secs.Add(0.5, "sparse")
	lat.Observe(0.05)
	lat.Observe(0.1)
	lat.Observe(3)
	_ = idle

	var b strings.Builder
	r.Write(&b)
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{path="/a",code="200"} 1
x_requests_total{path="/a",code="404"} 2
x_requests_total{path="/z",code="200"} 1
# HELP x_idle_total Never incremented.
# TYPE x_idle_total counter
x_idle_total 0
# HELP x_seconds_total Seconds.
# TYPE x_seconds_total counter
x_seconds_total{phase="sparse"} 0.5
# HELP x_latency_seconds Latency.
# TYPE x_latency_seconds histogram
x_latency_seconds_bucket{le="0.1"} 2
x_latency_seconds_bucket{le="1"} 2
x_latency_seconds_bucket{le="+Inf"} 3
x_latency_seconds_sum 3.15
x_latency_seconds_count 3
# HELP x_big_total Large integer.
# TYPE x_big_total counter
x_big_total 12345678
# HELP x_ratio Ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_state State.
# TYPE x_state gauge
x_state{replica="a"} 0
x_state{replica="b"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestTotal: a family total sums every series, or those whose labels
// match the given name/value pairs.
func TestTotal(t *testing.T) {
	var r Registry
	c := r.Counter("t_total", "Transitions.", "replica", "to")
	c.Inc("r0", "open")
	c.Inc("r1", "open")
	c.Inc("r1", "closed")
	if got := c.Total(); got != 3 {
		t.Errorf("Total() = %g, want 3", got)
	}
	if got := c.Total("to", "open"); got != 2 {
		t.Errorf(`Total("to", "open") = %g, want 2`, got)
	}
	if got := c.Total("replica", "r1", "to", "closed"); got != 1 {
		t.Errorf("Total(r1, closed) = %g, want 1", got)
	}
}

// TestConcurrentObserve: observations and scrapes may interleave freely.
func TestConcurrentObserve(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "Count.", "k")
	h := r.Histogram("h_seconds", "Latency.", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc("a")
				h.Observe(0.5)
				r.Write(&strings.Builder{})
			}
		}()
	}
	wg.Wait()
	if got := c.Total(); got != 400 {
		t.Errorf("Total() = %g, want 400", got)
	}
}

// TestParsePromText exercises the exposition parser the cluster harness
// gates with.
func TestParsePromText(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx 3\nx_labeled{kind=\"a\"} 2\nx_labeled{kind=\"b\"} 4.5\n\nmalformed\n"
	s := ParsePromText(text)
	if s["x"] != 3 {
		t.Fatalf("x = %v", s["x"])
	}
	if got := PromSum(s, "x_labeled"); got != 6.5 {
		t.Fatalf("PromSum(x_labeled) = %v, want 6.5", got)
	}
	if got := PromSum(s, "x"); got != 3 {
		t.Fatalf("PromSum(x) = %v, want 3 (labels of other families excluded)", got)
	}
}
