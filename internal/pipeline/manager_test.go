package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// chain returns phases a→b→c communicating through slots.
func chain(trace *[]string) []Phase {
	mk := func(name, need, give string) Phase {
		p := Phase{
			Name:     name,
			Provides: []string{give},
			Run: func(ctx context.Context, st *State) error {
				if need != "" {
					if Get[int](st, need) == 0 {
						return errors.New(name + ": input missing")
					}
				}
				*trace = append(*trace, name)
				st.Put(give, 1)
				return nil
			},
		}
		if need != "" {
			p.Needs = []string{need}
		}
		return p
	}
	return []Phase{mk("c", "y", "z"), mk("a", "", "x"), mk("b", "x", "y")}
}

func TestSequentialTopologicalOrder(t *testing.T) {
	var trace []string
	m, err := NewManager(chain(&trace)...)
	if err != nil {
		t.Fatal(err)
	}
	m.Sequential = true
	rep, err := m.Run(context.Background(), NewState())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, n := range rep.Order() {
		if n != want[i] {
			t.Fatalf("order = %v, want %v", rep.Order(), want)
		}
	}
	for i, n := range trace {
		if n != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestParallelPhasesOverlap(t *testing.T) {
	// left and right have no mutual dependency: each one blocks until the
	// other has started, so the run can only finish if the manager
	// actually overlaps them.
	leftUp := make(chan struct{})
	rightUp := make(chan struct{})
	rendezvous := func(name string, mine, other chan struct{}) Phase {
		return Phase{
			Name:     name,
			Needs:    []string{"seed"},
			Provides: []string{name + "-out"},
			Run: func(ctx context.Context, st *State) error {
				close(mine)
				select {
				case <-other:
					st.Put(name+"-out", 1)
					return nil
				case <-time.After(10 * time.Second):
					return errors.New(name + " never saw its peer: phases did not overlap")
				}
			},
		}
	}
	seed := Phase{
		Name:     "seed",
		Provides: []string{"seed"},
		Run: func(ctx context.Context, st *State) error {
			st.Put("seed", 1)
			return nil
		},
	}
	m, err := NewManager(seed, rendezvous("left", leftUp, rightUp), rendezvous("right", rightUp, leftUp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), NewState()); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialNeverOverlaps(t *testing.T) {
	var inFlight, peak int32
	mk := func(name string) Phase {
		return Phase{
			Name:     name,
			Provides: []string{name},
			Run: func(ctx context.Context, st *State) error {
				n := atomic.AddInt32(&inFlight, 1)
				for {
					old := atomic.LoadInt32(&peak)
					if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				atomic.AddInt32(&inFlight, -1)
				st.Put(name, 1)
				return nil
			},
		}
	}
	m, err := NewManager(mk("p"), mk("q"), mk("r"))
	if err != nil {
		t.Fatal(err)
	}
	m.Sequential = true
	if _, err := m.Run(context.Background(), NewState()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&peak); got != 1 {
		t.Fatalf("sequential run reached concurrency %d", got)
	}
}

func TestRunCancellationPhaseError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := Phase{
		Name:     "first",
		Provides: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			st.Put("x", 1)
			return nil
		},
	}
	blocker := Phase{
		Name:  "blocker",
		Needs: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	m, err := NewManager(first, blocker)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(ctx, NewState())
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PhaseError", err)
	}
	if pe.Phase != "blocker" {
		t.Errorf("failed phase = %q", pe.Phase)
	}
	if len(pe.Completed) != 1 || pe.Completed[0] != "first" {
		t.Errorf("completed = %v", pe.Completed)
	}
	if !ErrCancelled(err) {
		t.Error("ErrCancelled should see through PhaseError")
	}
	if es := rep.Entries(); len(es) != 1 || es[0].Name != "first" || es[0].Time <= 0 {
		t.Errorf("report entries = %+v, want the completed phase", es)
	}
}

func TestReportAccounting(t *testing.T) {
	mk := func(name string, bytes uint64) Phase {
		return Phase{
			Name:     name,
			Provides: []string{name},
			Run: func(ctx context.Context, st *State) error {
				st.Put(name, 1)
				return nil
			},
			Bytes: func(st *State) uint64 { return bytes },
		}
	}
	m, err := NewManager(mk("u", 100), mk("v", 23))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), NewState())
	if err != nil {
		t.Fatal(err)
	}
	bytes := map[string]uint64{}
	for _, e := range rep.Entries() {
		bytes[e.Name] = e.Bytes
	}
	if bytes["u"] != 100 || bytes["v"] != 23 || rep.TotalBytes() != 123 {
		t.Errorf("bytes: u=%d v=%d total=%d", bytes["u"], bytes["v"], rep.TotalBytes())
	}
}

func TestManagerValidation(t *testing.T) {
	noop := func(ctx context.Context, st *State) error { return nil }
	cases := []struct {
		name   string
		phases []Phase
	}{
		{"unnamed", []Phase{{Run: noop}}},
		{"no run", []Phase{{Name: "a"}}},
		{"duplicate name", []Phase{
			{Name: "a", Run: noop}, {Name: "a", Run: noop}}},
		{"duplicate provider", []Phase{
			{Name: "a", Provides: []string{"s"}, Run: noop},
			{Name: "b", Provides: []string{"s"}, Run: noop}}},
		{"self need", []Phase{
			{Name: "a", Needs: []string{"s"}, Provides: []string{"s"}, Run: noop}}},
		{"cycle", []Phase{
			{Name: "a", Needs: []string{"y"}, Provides: []string{"x"}, Run: noop},
			{Name: "b", Needs: []string{"x"}, Provides: []string{"y"}, Run: noop}}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.phases...); err == nil {
			t.Errorf("%s: NewManager accepted an invalid DAG", tc.name)
		}
	}
}

func TestUnseededExternalSlot(t *testing.T) {
	p := Phase{Name: "a", Needs: []string{"outside"},
		Run: func(ctx context.Context, st *State) error { return nil }}
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), NewState()); err == nil {
		t.Fatal("Run accepted a missing external slot")
	}
	st := NewState()
	st.Put("outside", 7)
	if _, err := m.Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
}

func TestGetZeroAndTypeMismatch(t *testing.T) {
	st := NewState()
	if got := Get[int](st, "absent"); got != 0 {
		t.Errorf("absent slot = %d", got)
	}
	st.Put("n", 42)
	if got := Get[int](st, "n"); got != 42 {
		t.Errorf("n = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("type mismatch should panic")
		}
	}()
	Get[string](st, "n")
}
