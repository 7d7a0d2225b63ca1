package engine

import "math/bits"

// Worklist is a priority worklist over a dense integer node space. Nodes
// are popped in reverse-postorder over the SCC condensation of the
// dependency graph registered through AddEdge: a node's facts are
// (heuristically) complete before its dependents run, which cuts the
// re-propagation an unordered discipline pays on diamond and chain shapes.
// Solvers add edges on the fly (Andersen's dynamic copy edges,
// indirect-call bindings); the ordering is recomputed lazily once enough
// new edges have landed since the last computation.
//
// Each node has a rank, its position in (priority, ID) order, and the
// scheduled nodes are the set bits of a bitset indexed by rank, so Pop
// returns the scheduled node of least priority, ties to the lower ID. A
// summary word per 64 bitset words marks the non-empty ones and a
// low-water cursor skips the summary words known to be empty.
//
// The ordering is purely a performance heuristic: all three solvers are
// monotone fixpoint computations, so the result is identical under any pop
// order. The pop order itself is part of the contract, though: the
// solvers' pop counters are pinned by goldens. A Worklist is not safe for
// concurrent use.
type Worklist struct {
	succs [][]int32
	// rank[n] is n's position in (priority, ID) order; order is its
	// inverse.
	rank  []int32
	order []int32
	// sched has bit r set when the node of rank r is scheduled; summary
	// has bit i set when sched[i] != 0; no summary word below cursor is
	// non-empty.
	sched   []uint64
	summary []uint64
	cursor  int
	n       int

	pops     uint64
	newEdges int
	ordered  bool

	// Scratch kept between reorders.
	index, low []int32
	onStack    []bool
	stack      []int32
	frames     []frame
}

type frame struct {
	v    int32
	succ int
}

// NewWorklist returns a worklist over nodes [0, n).
func NewWorklist(n int) *Worklist {
	w := &Worklist{}
	w.Grow(n)
	return w
}

// Grow extends the node space to [0, n); existing state is preserved. New
// nodes rank after every existing node, in ID order, until the next
// reordering. Before the first reordering priorities are the IDs, and
// afterwards every SCC priority is below the node count at that time, so
// node i's rank is i.
func (w *Worklist) Grow(n int) {
	old := len(w.succs)
	if n <= old {
		return
	}
	w.succs = grow(w.succs, n)
	w.rank = grow(w.rank, n)
	w.order = grow(w.order, n)
	for i := old; i < n; i++ {
		w.rank[i] = int32(i)
		w.order[i] = int32(i)
	}
	w.sched = grow(w.sched, (n+63)/64)
	w.summary = grow(w.summary, (len(w.sched)+63)/64)
}

// grow returns sl extended to length n with zero values, in one append.
func grow[T any](sl []T, n int) []T {
	return append(sl, make([]T, n-len(sl))...)
}

// AddEdge registers the dependency from → to (facts flow from "from" into
// "to"), used only for ordering. Duplicate edges are harmless.
func (w *Worklist) AddEdge(from, to int) {
	w.succs[from] = append(w.succs[from], int32(to))
	w.newEdges++
}

// Push schedules node n if it is not already scheduled.
func (w *Worklist) Push(n int) { w.mark(int(w.rank[n])) }

func (w *Worklist) mark(r int) {
	i, bit := r/64, uint64(1)<<(r%64)
	if w.sched[i]&bit != 0 {
		return
	}
	w.sched[i] |= bit
	w.summary[i/64] |= 1 << (i % 64)
	if s := i / 64; s < w.cursor {
		w.cursor = s
	}
	w.n++
}

// Pop removes and returns the highest-priority scheduled node.
func (w *Worklist) Pop() (int, bool) {
	if w.n == 0 {
		return 0, false
	}
	if !w.ordered || w.newEdges > w.reorderThreshold() {
		w.reorder()
	}
	for w.summary[w.cursor] == 0 {
		w.cursor++
	}
	i := w.cursor*64 + bits.TrailingZeros64(w.summary[w.cursor])
	b := bits.TrailingZeros64(w.sched[i])
	w.sched[i] &^= 1 << b
	if w.sched[i] == 0 {
		w.summary[i/64] &^= 1 << (i % 64)
	}
	w.n--
	w.pops++
	return int(w.order[i*64+b]), true
}

// Len returns the number of scheduled nodes.
func (w *Worklist) Len() int { return w.n }

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

// reorder recomputes priorities as reverse-postorder over the SCC
// condensation (Tarjan, iterative), re-ranks every node by a counting sort
// over the priorities and re-marks the pending nodes under their new
// ranks. Tarjan completes an SCC only after every SCC reachable from it,
// so completion order is reverse-topological; inverting it makes sources
// (constraint/def-use producers) pop first.
func (w *Worklist) reorder() {
	n := len(w.succs)
	w.ordered = true
	w.newEdges = 0

	// index[v] is v's DFS number until v's SCC completes, then the SCC's
	// completion number; -1 means unvisited.
	index := grow(w.index[:0], n)
	low := grow(w.low[:0], n)
	onStack := grow(w.onStack[:0], n)
	for i := range index {
		index[i] = -1
	}
	stack, frames := w.stack[:0], w.frames[:0]
	var counter, comps int32

	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames, frame{v: int32(start)})
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
			frames = frames[:len(frames)-1]
			if low[v] == index[v] {
				// A root's low is its own DFS number, above its parent's,
				// so completing an SCC never lowers the parent.
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					index[u] = comps
					if u == v {
						break
					}
				}
				comps++
			} else if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}

	// Priority is comps-1-SCC, so the last SCC completed ranks first. low
	// becomes each SCC's next free rank, and nodes take ranks in ID order
	// within their SCC, which is the heap's (priority, ID) order.
	next := low[:comps]
	clear(next)
	for _, c := range index {
		next[c]++
	}
	var r int32
	for c := comps - 1; c >= 0; c-- {
		cnt := next[c]
		next[c] = r
		r += cnt
	}
	// The pending nodes are read off the old ranks through order before
	// order is rebuilt; stack holds them meanwhile.
	for i, word := range w.sched {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			stack = append(stack, w.order[i*64+b])
		}
	}
	for v, c := range index {
		w.rank[v] = next[c]
		w.order[next[c]] = int32(v)
		next[c]++
	}
	clear(w.sched)
	clear(w.summary)
	w.cursor, w.n = 0, 0
	for _, v := range stack {
		w.mark(int(w.rank[v]))
	}
	w.index, w.low, w.onStack, w.stack, w.frames = index, low, onStack, stack[:0], frames
}
