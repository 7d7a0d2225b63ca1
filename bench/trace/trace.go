// Package trace is the benchmark's span recorder. The benchmark opens a
// span around each call it makes into a layer's public entry point (the
// program itself carries no spans), keeps every span in memory, and writes
// them out as JSON lines when the run ends.
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created; Parent is 0 for a root span.
type Span struct {
	Trace  string             `json:"trace"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Duration is the span's wall time.
func (s *Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Set records a count on the span. A span belongs to the goroutine that
// opened it until End, so Set takes no lock.
func (s *Span) Set(key string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []*Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{base: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// Start opens a span named name in trace, under parent (nil for a root).
func (r *Recorder) Start(trace string, parent *Span, name string) *Span {
	s := &Span{Trace: trace, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.Start = r.now()
	return s
}

// End closes s.
func (r *Recorder) End(s *Span) { s.End = r.now() }

// Do runs f inside a span and records the bytes it allocated as the
// "alloc_bytes" count (from runtime.ReadMemStats, read outside the timed
// interval).
func (r *Recorder) Do(trace string, parent *Span, name string, f func(*Span) error) (*Span, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := r.Start(trace, parent, name)
	err := f(s)
	r.End(s)
	runtime.ReadMemStats(&after)
	s.Set("alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	return s, err
}

// Spans returns the recorded spans in creation order.
func (r *Recorder) Spans() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}

// SelfTimes maps each span ID to its self time: the span's duration minus
// the part of its interval that its children cover. Overlapping children
// (concurrent work) are counted once.
func SelfTimes(spans []*Span) map[int]time.Duration {
	kids := map[int][]*Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Duration() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p *Span, kids []*Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Digest is the hex SHA-256 of an output, the form in which expected
// outputs are stored.
func Digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// CheckSame reports an error unless the traced run's output digest equals
// the untraced facade run's: calling the layers one by one must compute
// exactly what the facade computes.
func CheckSame(label, traced, facade string) error {
	if traced != facade {
		return fmt.Errorf("%s: traced output digest %.12s differs from the facade's %.12s", label, traced, facade)
	}
	return nil
}
