// Package metrics is the Prometheus text-exposition registry fsamd and
// fsamgw serve /metrics through. The repo takes no dependencies and the
// text format is small, so the registry writes it directly: counter,
// gauge-func and histogram families, each declared once with its name,
// help text, type and label names, and rendered by one Write that gives
// every family a HELP and a TYPE line.
//
// Integer-valued families render their samples with %d and float-valued
// ones with %g. Labeled families list their series sorted by label values;
// an unlabeled counter always shows its one series, zero included.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry holds the declared families in declaration order, which is
// the order Write renders them in.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// family is one declared metric family.
type family struct {
	r               *Registry
	name, help, typ string
	labels          []string
	float           bool // render samples with %g instead of %d

	series map[string]*series // label values joined by "\xff" → series

	// Histograms: bucket upper bounds (series counts carry one more slot
	// for the +Inf overflow).
	buckets []float64

	// Func families read their samples at scrape time.
	collect func(emit func(v float64, labelValues ...string))
}

type series struct {
	labels []string
	v      float64  // counter value; histogram sum
	counts []uint64 // histogram per-bucket (non-cumulative) counts
	n      uint64   // histogram observation count
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f.r, f.series = r, map[string]*series{}
	if len(f.labels) == 0 && f.collect == nil {
		f.get(nil)
	}
	r.fams = append(r.fams, f)
	return f
}

// get returns the series for labelValues, creating it. Callers hold r.mu.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes labels %v, got values %v", f.name, f.labels, labelValues))
	}
	key := strings.Join(labelValues, "\xff")
	s := f.series[key]
	if s == nil {
		s = &series{labels: slices.Clone(labelValues)}
		if f.buckets != nil {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter is a counter family: one monotonically increasing series per
// label-value tuple.
type Counter struct{ f *family }

// Counter declares an integer-valued counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// FloatCounter declares a float-valued counter family (e.g. cumulative
// seconds).
func (r *Registry) FloatCounter(name, help string, labels ...string) *Counter {
	return &Counter{r.register(&family{name: name, help: help, typ: "counter", labels: labels, float: true})}
}

// Add adds v to the series named by labelValues (one per declared label).
func (c *Counter) Add(v float64, labelValues ...string) {
	c.f.r.mu.Lock()
	defer c.f.r.mu.Unlock()
	c.f.get(labelValues).v += v
}

// Inc adds one to the series named by labelValues.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Total sums the family's series whose label values match want, a list
// of label name/value pairs; with no pairs it sums the whole family.
func (c *Counter) Total(want ...string) float64 {
	c.f.r.mu.Lock()
	defer c.f.r.mu.Unlock()
	var total float64
next:
	for _, s := range c.f.series {
		for i := 0; i+1 < len(want); i += 2 {
			if j := slices.Index(c.f.labels, want[i]); j < 0 || s.labels[j] != want[i+1] {
				continue next
			}
		}
		total += s.v
	}
	return total
}

// Histogram is an unlabeled histogram family over fixed bucket bounds.
type Histogram struct{ f *family }

// Histogram declares a histogram family with the given ascending upper
// bucket bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{r.register(&family{name: name, help: help, typ: "histogram", buckets: buckets})}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.f.r.mu.Lock()
	defer h.f.r.mu.Unlock()
	s := h.f.get(nil)
	i, _ := slices.BinarySearch(h.f.buckets, v) // first bound >= v; len = +Inf
	s.counts[i]++
	s.v += v
	s.n++
}

// CounterFunc declares an unlabeled integer counter whose value f reads at
// scrape time (a counter kept by another component).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", collect: one(f)})
}

// GaugeFunc declares an unlabeled integer gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", collect: one(f)})
}

// FloatGaugeFunc declares an unlabeled float gauge read at scrape time.
func (r *Registry) FloatGaugeFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", float: true, collect: one(f)})
}

// GaugeVecFunc declares a labeled integer gauge whose series collect
// emits at scrape time, one call per series.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit func(v float64, labelValues ...string))) {
	r.register(&family{name: name, help: help, typ: "gauge", labels: labels, collect: collect})
}

func one(f func() float64) func(func(float64, ...string)) {
	return func(emit func(float64, ...string)) { emit(f()) }
}

// Write renders every family in the text exposition format.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	fams := slices.Clone(r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.snapshot() {
			f.writeSeries(w, s)
		}
	}
}

// snapshot copies a family's series sorted by label values; func families
// are collected outside the registry lock, so a callback may take other
// components' locks freely.
func (f *family) snapshot() []series {
	var out []series
	if f.collect != nil {
		f.collect(func(v float64, labelValues ...string) {
			out = append(out, series{labels: labelValues, v: v})
		})
	} else {
		f.r.mu.Lock()
		for _, s := range f.series {
			out = append(out, series{labels: s.labels, v: s.v, counts: slices.Clone(s.counts), n: s.n})
		}
		f.r.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b series) int { return slices.Compare(a.labels, b.labels) })
	return out
}

func (f *family) writeSeries(w io.Writer, s series) {
	if f.buckets != nil {
		var cum uint64
		for i, bound := range f.buckets {
			cum += s.counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", f.name, bound, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum+s.counts[len(f.buckets)])
		fmt.Fprintf(w, "%s_sum %g\n", f.name, s.v)
		fmt.Fprintf(w, "%s_count %d\n", f.name, s.n)
		return
	}
	name := f.name
	if len(s.labels) > 0 {
		pairs := make([]string, len(s.labels))
		for i, lv := range s.labels {
			pairs[i] = fmt.Sprintf("%s=%q", f.labels[i], lv)
		}
		name += "{" + strings.Join(pairs, ",") + "}"
	}
	if f.float {
		fmt.Fprintf(w, "%s %g\n", name, s.v)
	} else {
		fmt.Fprintf(w, "%s %d\n", name, int64(s.v))
	}
}

// ParsePromText parses a Prometheus text exposition into sample → value.
// Keys keep their label sets verbatim (`name{label="x"}`), so callers can
// look up exact samples or fold families with PromSum. Comment and type
// lines, blank lines, and malformed samples are skipped — the parser is
// for gates over this registry's own expositions, not a general scraper.
func ParsePromText(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space outside braces; our
		// expositions never put spaces in label values' tails, so the last
		// space split is sufficient.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// PromSum folds every sample of one metric family — `family` alone and
// `family{...}` with any labels — into a single total.
func PromSum(samples map[string]float64, family string) float64 {
	var n float64
	for k, v := range samples {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}
