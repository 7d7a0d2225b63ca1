// Package dom computes dominator trees and dominance frontiers of IR
// function CFGs using the Cooper-Harvey-Kennedy iterative algorithm. It is
// shared by the mem2reg SSA construction and the memory-SSA phase of the
// def-use graph builder.
package dom

import (
	"slices"

	"repro/internal/ir"
)

// Info holds the dominator tree of one function. Its tables are slices
// indexed by Block.Index, so the function's Blocks must be numbered as
// Function.NewBlock and ir.RemoveUnreachable leave them.
type Info struct {
	// Blocks in reverse postorder.
	Blocks []*ir.Block

	blocks []*ir.Block // the function's blocks, by Index
	rpo    []int32     // reverse-postorder position; -1 when unreachable
	idom   []*ir.Block
	// children and frontier are packed adjacency lists: the entries of
	// the block with index i are list[start[i]:start[i+1]].
	childStart, frontStart []int32
	childList, frontList   []*ir.Block

	// IteratedFrontier scratch: a block is in the worklist (in the
	// result) of the current call when inWork (inResult) holds gen.
	gen              uint32
	inWork, inResult []uint32
	work, idf        []*ir.Block
}

// Compute builds dominator tree and dominance frontiers for f.
func Compute(f *ir.Function) *Info {
	n := len(f.Blocks)
	// One allocation each for the int32 and the block tables.
	ints := make([]int32, 4*n+2)
	ptrs := make([]*ir.Block, 3*n)
	d := &Info{
		blocks:     f.Blocks,
		rpo:        ints[:n:n],
		childStart: ints[n : 2*n+1 : 2*n+1],
		frontStart: ints[2*n+1 : 3*n+2 : 3*n+2],
		idom:       ptrs[:n:n],
	}
	fill, last := ints[3*n+2:], ptrs[n:2*n:2*n]
	for i := range d.rpo {
		d.rpo[i] = -1
	}
	if f.Entry == nil {
		return d
	}
	// Postorder DFS from entry (iterative to handle deep CFGs). rpo doubles
	// as the visited mark until the postorder is known.
	type frame struct {
		b *ir.Block
		i int
	}
	stack := []frame{{b: f.Entry}}
	post := ptrs[2*n : 2*n : 3*n]
	d.rpo[d.index(f.Entry)] = 0
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.i < len(fr.b.Succs) {
			s := fr.b.Succs[fr.i]
			fr.i++
			if si := d.index(s); d.rpo[si] < 0 {
				d.rpo[si] = 0
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	d.Blocks = post
	for i, blk := range d.Blocks {
		d.rpo[blk.Index] = int32(i)
	}

	intersect := func(b1, b2 *ir.Block) *ir.Block {
		for b1 != b2 {
			for d.rpo[b1.Index] > d.rpo[b2.Index] {
				b1 = d.idom[b1.Index]
			}
			for d.rpo[b2.Index] > d.rpo[b1.Index] {
				b2 = d.idom[b2.Index]
			}
		}
		return b1
	}

	d.idom[f.Entry.Index] = f.Entry
	for changed := true; changed; {
		changed = false
		for _, blk := range d.Blocks {
			if blk == f.Entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range blk.Preds {
				if d.idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[blk.Index] != newIdom {
				d.idom[blk.Index] = newIdom
				changed = true
			}
		}
	}

	// Dominator-tree children, in reverse postorder per parent.
	var edges []edge
	for _, blk := range d.Blocks {
		if blk != f.Entry {
			edges = append(edges, edge{d.idom[blk.Index].Index, blk})
		}
	}
	d.childList = pack(d.childStart, fill, edges)

	// Frontiers. Each block's frontier lists its members in reverse
	// postorder: blk is the only block added while blk is visited, so a
	// repeat (preds may repeat across edges) is always the runner's last
	// entry, which last tracks.
	// Note: no join-node (≥2 preds) shortcut — a self-loop on a single-pred
	// block must still put the block in its own frontier.
	edges = edges[:0]
	add := func(runner, blk *ir.Block) {
		if last[runner.Index] != blk {
			last[runner.Index] = blk
			edges = append(edges, edge{runner.Index, blk})
		}
	}
	for _, blk := range d.Blocks {
		for _, p := range blk.Preds {
			if d.idom[p.Index] == nil {
				continue
			}
			if p == blk {
				// Self-loop: a block is always in its own frontier (even
				// the entry, whose idom is itself).
				add(blk, blk)
				continue
			}
			runner := p
			for runner != d.idom[blk.Index] {
				add(runner, blk)
				runner = d.idom[runner.Index]
			}
			// A back edge into the entry: the sentinel idom(entry) == entry
			// stops the walk before adding the entry itself, but the entry
			// dominates p without strictly dominating itself, so it belongs
			// to its own frontier.
			if blk == d.idom[blk.Index] {
				add(blk, blk)
			}
		}
	}
	d.frontList = pack(d.frontStart, fill, edges)
	return d
}

// edge is one adjacency-list entry: to belongs to from's list.
type edge struct {
	from int
	to   *ir.Block
}

// pack lays edges out as per-block lists indexed by block index, keeping
// the order edges gives within each list. start (zeroed, one entry per
// block plus one) receives the list offsets; fill is scratch of one entry
// per block.
func pack(start, fill []int32, edges []edge) []*ir.Block {
	for _, e := range edges {
		start[e.from+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	list := make([]*ir.Block, len(edges))
	copy(fill, start)
	for _, e := range edges {
		list[fill[e.from]] = e.to
		fill[e.from]++
	}
	return list
}

// index returns b's index into the tables. A block outside the function
// is a caller bug.
func (d *Info) index(b *ir.Block) int {
	if b.Index < 0 || b.Index >= len(d.blocks) || d.blocks[b.Index] != b {
		panic("dom: block " + b.String() + " is not a block of the function")
	}
	return b.Index
}

// Idom returns the immediate dominator of b (entry maps to itself;
// unreachable blocks map to nil).
func (d *Info) Idom(b *ir.Block) *ir.Block { return d.idom[d.index(b)] }

// Children returns the dominator-tree children of b. The slice is shared:
// callers must not modify it.
func (d *Info) Children(b *ir.Block) []*ir.Block {
	i := d.index(b)
	return d.childList[d.childStart[i]:d.childStart[i+1]:d.childStart[i+1]]
}

// Frontier returns the dominance frontier of b. The slice is shared:
// callers must not modify it.
func (d *Info) Frontier(b *ir.Block) []*ir.Block {
	i := d.index(b)
	return d.frontList[d.frontStart[i]:d.frontStart[i+1]:d.frontStart[i+1]]
}

// Reachable reports whether b was reachable from the entry.
func (d *Info) Reachable(b *ir.Block) bool { return d.rpo[d.index(b)] >= 0 }

// IteratedFrontier returns the iterated dominance frontier of the given
// definition blocks (the phi-placement set), in discovery order. The
// returned slice is reused by the next call.
func (d *Info) IteratedFrontier(defs []*ir.Block) []*ir.Block {
	if d.inWork == nil {
		n := len(d.blocks)
		stamps := make([]uint32, 2*n)
		d.inWork, d.inResult = stamps[:n:n], stamps[n:]
	}
	d.gen++
	if d.gen == 0 { // wrapped: old stamps could collide
		clear(d.inWork)
		clear(d.inResult)
		d.gen = 1
	}
	gen := d.gen
	work := d.work[:0]
	for _, b := range defs {
		if i := d.index(b); d.rpo[i] >= 0 && d.inWork[i] != gen {
			d.inWork[i] = gen
			work = append(work, b)
		}
	}
	out := d.idf[:0]
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		i := b.Index
		for _, fb := range d.frontList[d.frontStart[i]:d.frontStart[i+1]] {
			if d.inResult[fb.Index] != gen {
				d.inResult[fb.Index] = gen
				out = append(out, fb)
				if d.inWork[fb.Index] != gen {
					d.inWork[fb.Index] = gen
					work = append(work, fb)
				}
			}
		}
	}
	d.work, d.idf = work, out
	return out
}
