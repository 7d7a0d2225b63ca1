package engine

// Worklist is a priority worklist over a dense integer node space. Nodes
// are popped in reverse-postorder over the SCC condensation of the
// dependency graph registered through AddEdge: a node's facts are
// (heuristically) complete before its dependents run, which cuts the
// re-propagation a FIFO or LIFO discipline pays on diamond and chain
// shapes. Solvers add edges on the fly (Andersen's dynamic copy edges,
// indirect-call bindings); the ordering is recomputed lazily once enough
// new edges have landed since the last computation.
//
// The ordering is purely a performance heuristic: all three solvers are
// monotone fixpoint computations, so the result is identical under any pop
// order. A Worklist is not safe for concurrent use.
type Worklist struct {
	succs  [][]int32
	prio   []int32
	heap   []int32
	inWork []bool

	pops     uint64
	newEdges int
	ordered  bool
}

// NewWorklist returns a worklist over nodes [0, n).
func NewWorklist(n int) *Worklist {
	w := &Worklist{}
	w.Grow(n)
	return w
}

// Grow extends the node space to [0, n); existing state is preserved. New
// nodes get the current worst priority until the next reordering.
func (w *Worklist) Grow(n int) {
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

// AddEdge registers the dependency from → to (facts flow from "from" into
// "to"), used only for ordering. Duplicate edges are harmless.
func (w *Worklist) AddEdge(from, to int) {
	w.succs[from] = append(w.succs[from], int32(to))
	w.newEdges++
}

// Push schedules node n if it is not already scheduled.
func (w *Worklist) Push(n int) {
	if w.inWork[n] {
		return
	}
	w.inWork[n] = true
	w.heap = append(w.heap, int32(n))
	w.up(len(w.heap) - 1)
}

// Pop removes and returns the highest-priority scheduled node.
func (w *Worklist) Pop() (int, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	if !w.ordered || w.newEdges > w.reorderThreshold() {
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
	w.pops++
	return int(n), true
}

// Len returns the number of scheduled nodes.
func (w *Worklist) Len() int { return len(w.heap) }

// Pops returns the total number of nodes popped so far (the "iterations"
// figure the benchmarks report).
func (w *Worklist) Pops() uint64 { return w.pops }

// reorderThreshold is the number of new edges tolerated before the
// ordering is recomputed. Recomputation is O(V+E), so it is amortized
// against graph growth.
func (w *Worklist) reorderThreshold() int {
	t := len(w.succs) / 2
	if t < 256 {
		t = 256
	}
	return t
}

func (w *Worklist) less(a, b int32) bool {
	if w.prio[a] != w.prio[b] {
		return w.prio[a] < w.prio[b]
	}
	return a < b // deterministic tie-break
}

func (w *Worklist) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(w.heap[i], w.heap[parent]) {
			break
		}
		w.heap[i], w.heap[parent] = w.heap[parent], w.heap[i]
		i = parent
	}
}

func (w *Worklist) down(i int) {
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

// reorder recomputes priorities as reverse-postorder over the SCC
// condensation (Tarjan, iterative) and re-heapifies the pending nodes.
// Tarjan completes an SCC only after every SCC reachable from it, so
// completion order is reverse-topological; inverting it makes sources
// (constraint/def-use producers) pop first.
func (w *Worklist) reorder() {
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
	type frame struct {
		v    int32
		succ int
	}
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
	// Re-heapify pending nodes under the new priorities.
	for i := len(w.heap)/2 - 1; i >= 0; i-- {
		w.down(i)
	}
}
