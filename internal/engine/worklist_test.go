package engine

import (
	"math/rand"
	"testing"
)

func TestWorklistPopsTopologically(t *testing.T) {
	// Chain 0→1→2→3 pushed in reverse: pops must come out in chain order.
	w := NewWorklist(4)
	for i := 0; i < 3; i++ {
		w.AddEdge(i, i+1)
	}
	for i := 3; i >= 0; i-- {
		w.Push(i)
	}
	for want := 0; want < 4; want++ {
		got, ok := w.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d: got %d ok=%v", want, got, ok)
		}
	}
	if _, ok := w.Pop(); ok {
		t.Fatal("pop from empty worklist succeeded")
	}
	if w.Pops() != 4 {
		t.Fatalf("Pops=%d, want 4", w.Pops())
	}
}

func TestWorklistSCCMembersSharePriority(t *testing.T) {
	// 0→1→2→0 cycle feeding 3; source 4 feeding the cycle.
	w := NewWorklist(5)
	w.AddEdge(0, 1)
	w.AddEdge(1, 2)
	w.AddEdge(2, 0)
	w.AddEdge(2, 3)
	w.AddEdge(4, 0)
	for i := 0; i < 5; i++ {
		w.Push(i)
	}
	var order []int
	for {
		n, ok := w.Pop()
		if !ok {
			break
		}
		order = append(order, n)
	}
	pos := make([]int, 5)
	for i, n := range order {
		pos[n] = i
	}
	if pos[4] != 0 {
		t.Fatalf("source 4 not first: order=%v", order)
	}
	if pos[3] != 4 {
		t.Fatalf("sink 3 not last: order=%v", order)
	}
}

func TestWorklistPushDedups(t *testing.T) {
	w := NewWorklist(2)
	w.Push(1)
	w.Push(1)
	if w.Len() != 1 {
		t.Fatalf("Len=%d after duplicate push, want 1", w.Len())
	}
	if n, _ := w.Pop(); n != 1 {
		t.Fatal("wrong node")
	}
	// Re-push after pop is allowed.
	w.Push(1)
	if w.Len() != 1 {
		t.Fatal("re-push after pop lost")
	}
}

func TestWorklistGrowAndDynamicEdges(t *testing.T) {
	w := NewWorklist(2)
	w.AddEdge(1, 0)
	w.Push(0)
	w.Push(1)
	if n, _ := w.Pop(); n != 1 {
		t.Fatalf("want producer 1 first, got %d", n)
	}
	w.Grow(4)
	w.AddEdge(3, 2)
	w.Push(2)
	w.Push(3)
	// Drain; every node must come out exactly once.
	seen := map[int]bool{}
	for {
		n, ok := w.Pop()
		if !ok {
			break
		}
		if seen[n] {
			t.Fatalf("node %d popped twice", n)
		}
		seen[n] = true
	}
	if len(seen) != 3 {
		t.Fatalf("drained %d nodes, want 3", len(seen))
	}
}

// TestWorklistNeverLosesNodes randomly interleaves pushes, pops, edge
// additions and growth; every pushed node must eventually pop exactly once
// per push-while-absent.
func TestWorklistNeverLosesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 50
	w := NewWorklist(n)
	pending := map[int]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0:
			x := rng.Intn(n)
			w.Push(x)
			pending[x] = true
		case 1:
			if got, ok := w.Pop(); ok {
				if !pending[got] {
					t.Fatalf("popped %d which was not pending", got)
				}
				delete(pending, got)
			} else if len(pending) != 0 {
				t.Fatalf("empty pop with %d pending", len(pending))
			}
		case 2:
			w.AddEdge(rng.Intn(n), rng.Intn(n))
		case 3:
			if rng.Intn(10) == 0 {
				n++
				w.Grow(n)
			}
		}
		if w.Len() != len(pending) {
			t.Fatalf("Len=%d, pending=%d", w.Len(), len(pending))
		}
	}
	for {
		got, ok := w.Pop()
		if !ok {
			break
		}
		delete(pending, got)
	}
	if len(pending) != 0 {
		t.Fatalf("%d nodes lost", len(pending))
	}
}

// heapWorklist is the binary-heap worklist the rank bitset replaced, kept
// as the reference for its pop order: the heap pops the pending node of
// least (priority, ID), and priorities are recomputed exactly as Worklist
// recomputes ranks.
type heapWorklist struct {
	succs  [][]int32
	prio   []int32
	heap   []int32
	inWork []bool

	newEdges int
	ordered  bool
}

func (w *heapWorklist) Grow(n int) {
	old := len(w.succs)
	if n <= old {
		return
	}
	w.succs = append(w.succs, make([][]int32, n-old)...)
	w.inWork = append(w.inWork, make([]bool, n-old)...)
	w.prio = append(w.prio, make([]int32, n-old)...)
	for i := old; i < n; i++ {
		w.prio[i] = int32(i)
	}
}

func (w *heapWorklist) AddEdge(from, to int) {
	w.succs[from] = append(w.succs[from], int32(to))
	w.newEdges++
}

func (w *heapWorklist) Push(n int) {
	if w.inWork[n] {
		return
	}
	w.inWork[n] = true
	w.heap = append(w.heap, int32(n))
	w.up(len(w.heap) - 1)
}

func (w *heapWorklist) Pop() (int, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	if !w.ordered || w.newEdges > max(len(w.succs)/2, 256) {
		w.reorder()
	}
	n := w.heap[0]
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	if last > 0 {
		w.down(0)
	}
	w.inWork[n] = false
	return int(n), true
}

func (w *heapWorklist) Len() int { return len(w.heap) }

func (w *heapWorklist) less(a, b int32) bool {
	if w.prio[a] != w.prio[b] {
		return w.prio[a] < w.prio[b]
	}
	return a < b
}

func (w *heapWorklist) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(w.heap[i], w.heap[parent]) {
			break
		}
		w.heap[i], w.heap[parent] = w.heap[parent], w.heap[i]
		i = parent
	}
}

func (w *heapWorklist) down(i int) {
	n := len(w.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && w.less(w.heap[l], w.heap[min]) {
			min = l
		}
		if r < n && w.less(w.heap[r], w.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		w.heap[i], w.heap[min] = w.heap[min], w.heap[i]
		i = min
	}
}

// reorder is the old recursive-free Tarjan pass with a separate
// completion-order array and a re-heapify.
func (w *heapWorklist) reorder() {
	n := len(w.succs)
	w.ordered = true
	w.newEdges = 0
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	compOrder := make([]int32, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var counter, comps int32
	var frames []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(start)})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			succs := w.succs[v]
			advanced := false
			for fr.succ < len(succs) {
				u := succs[fr.succ]
				fr.succ++
				if index[u] == -1 {
					index[u] = counter
					low[u] = counter
					counter++
					stack = append(stack, u)
					onStack[u] = true
					frames = append(frames, frame{v: u})
					advanced = true
					break
				} else if onStack[u] && index[u] < low[v] {
					low[v] = index[u]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					compOrder[u] = comps
					if u == v {
						break
					}
				}
				comps++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	for i := range w.prio {
		w.prio[i] = comps - 1 - compOrder[i]
	}
	for i := len(w.heap)/2 - 1; i >= 0; i-- {
		w.down(i)
	}
}

// TestWorklistMatchesHeapOrder drives the rank bitset and the reference
// heap through the same seeded sequences of Push, Pop, AddEdge and Grow
// (Grow after reorders included); every Pop must return the same node and
// every Len must agree. Edge bursts past the reorder threshold force
// reorders mid-run.
func TestWorklistMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		w := NewWorklist(n)
		ref := &heapWorklist{}
		ref.Grow(n)
		pops := 0
		for step := 0; step < 20000; step++ {
			switch k := rng.Intn(100); {
			case k < 40:
				x := rng.Intn(n)
				w.Push(x)
				ref.Push(x)
			case k < 75:
				got, ok := w.Pop()
				want, wantOK := ref.Pop()
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d pop %d: got (%d, %v), heap (%d, %v)", seed, step, pops, got, ok, want, wantOK)
				}
				pops++
			case k < 97:
				// Mostly forward edges, so SCCs stay small and chains long.
				a, b := rng.Intn(n), rng.Intn(n)
				if rng.Intn(4) != 0 && a > b {
					a, b = b, a
				}
				w.AddEdge(a, b)
				ref.AddEdge(a, b)
			case k < 99:
				n += 1 + rng.Intn(70)
				w.Grow(n)
				ref.Grow(n)
			default:
				for i := 0; i < 300; i++ {
					a, b := rng.Intn(n), rng.Intn(n)
					w.AddEdge(a, b)
					ref.AddEdge(a, b)
				}
			}
			if w.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len %d, heap %d", seed, step, w.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			got, _ := w.Pop()
			want, _ := ref.Pop()
			if got != want {
				t.Fatalf("seed %d drain: got %d, heap %d", seed, got, want)
			}
		}
		if _, ok := w.Pop(); ok {
			t.Fatalf("seed %d: worklist not empty after the heap drained", seed)
		}
	}
}

// worklistAPI is what BenchmarkWorklist drives, so the bitset and the
// reference heap replay the same trace.
type worklistAPI interface {
	AddEdge(from, to int)
	Push(n int)
	Pop() (int, bool)
}

// BenchmarkWorklist replays a synthetic solve the size of the sparse solve
// of x264 at scale 16 (about 60k nodes and 120k pops): a mostly-forward
// dependency graph, every node scheduled once, each pop rescheduling some
// successors, and edge batches landing mid-solve that force reorders.
func BenchmarkWorklist(b *testing.B) {
	const (
		nodes   = 60000
		maxPops = 120000
	)
	rng := rand.New(rand.NewSource(1))
	succs := make([][]int, nodes)
	for v := range succs {
		for k := rng.Intn(4); k > 0; k-- {
			u := v + 1 + rng.Intn(256)
			if rng.Intn(20) == 0 {
				u = rng.Intn(v + 1)
			}
			if u < nodes {
				succs[v] = append(succs[v], u)
			}
		}
	}
	late := make([][2]int, 40000)
	for i := range late {
		v := rng.Intn(nodes)
		late[i] = [2]int{v, min(nodes-1, v+1+rng.Intn(1024))}
	}
	run := func(b *testing.B, newWorklist func() worklistAPI) {
		b.ReportAllocs()
		pops := 0
		for i := 0; i < b.N; i++ {
			w := newWorklist()
			for v, out := range succs {
				for _, u := range out {
					w.AddEdge(v, u)
				}
				w.Push(v)
			}
			x := uint64(88172645463325252)
			pops = 0
			for {
				v, ok := w.Pop()
				if !ok {
					break
				}
				pops++
				if pops%1000 == 0 && pops/1000*400 <= len(late) {
					for _, e := range late[pops/1000*400-400 : pops/1000*400] {
						w.AddEdge(e[0], e[1])
					}
				}
				if pops >= maxPops {
					continue
				}
				for _, u := range succs[v] {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if x%3 != 0 {
						w.Push(u)
					}
				}
			}
		}
		b.ReportMetric(float64(pops), "pops/op")
	}
	b.Run("rank", func(b *testing.B) {
		run(b, func() worklistAPI { return NewWorklist(nodes) })
	})
	b.Run("heap", func(b *testing.B) {
		run(b, func() worklistAPI {
			w := &heapWorklist{}
			w.Grow(nodes)
			return w
		})
	})
}
