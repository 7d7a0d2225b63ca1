package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// spin burns CPU for about d, so spans cover real work rather than sleeps
// the scheduler may stretch.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 0
	for time.Now().Before(end) {
		x++
	}
	_ = x
}

func TestChildSelfTimesSumToRoot(t *testing.T) {
	r := New()
	root := r.Start("w/p/1", nil, "program")
	for _, name := range []string{"compile", "andersen", "vfg", "core"} {
		if _, err := r.Do("w/p/1", root, name, func(*Span) error { spin(5 * time.Millisecond); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	r.End(root)

	self := SelfTimes(r.Spans())
	var kids time.Duration
	for _, s := range r.Spans() {
		if s.Parent == root.ID {
			kids += self[s.ID]
		}
	}
	if diff := root.Duration() - kids; diff < 0 || float64(diff) > 0.05*float64(root.Duration()) {
		t.Fatalf("children self time %v vs root %v: off by more than 5%%", kids, root.Duration())
	}
	if self[root.ID] != root.Duration()-kids {
		t.Fatalf("root self time %v, want %v", self[root.ID], root.Duration()-kids)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	p := &Span{ID: 1, Start: 0, End: 100}
	spans := []*Span{p,
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 30, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	if got := SelfTimes(spans)[1]; got != 30 {
		t.Fatalf("self time %d, want 30 (100 - [10,70] - [90,100])", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := New()
	s, _ := r.Do("t", nil, "layer", func(s *Span) error { s.Set("pops", 7); return nil })
	if s.Counts["alloc_bytes"] < 0 {
		t.Fatal("negative alloc count")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d lines, want 1", len(lines))
	}
	var got Span
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "layer" || got.Trace != "t" || got.Counts["pops"] != 7 || got.End < got.Start {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCheckSame(t *testing.T) {
	a, b := Digest([]byte("x")), Digest([]byte("y"))
	if CheckSame("p", a, a) != nil || CheckSame("p", a, b) == nil {
		t.Fatal("CheckSame must accept equal digests and reject different ones")
	}
}
