package irbuild

import (
	"repro/internal/dom"
	"repro/internal/frontend/types"
	"repro/internal/ir"
)

// promoteScratch is mem2reg's working state. It is indexed by ObjID,
// VarID and Block.Index instead of keyed by pointer, is shared across the
// functions of one build, and every entry a function sets is cleared
// before the next function starts.
type promoteScratch struct {
	// objSlot and addrSlot hold 1 + the promote index of a promoted object,
	// by its ObjID and by the VarID of each of its address temporaries; 0
	// means not promoted.
	objSlot  []int32
	addrSlot []int32
	// replaced maps a deleted load's result (by VarID) to the value it
	// read.
	replaced []*ir.Var
	// The VarIDs set in addrSlot and replaced, for clearing.
	addrs, loads []ir.VarID

	defs    [][]*ir.Block // by promote index: blocks storing to it
	phis    [][]placedPhi // by Block.Index, in promote order
	cur     []*ir.Var     // by promote index: the renaming environment
	undef   []*ir.Var     // by promote index: its undefined value
	undo    []undoEntry   // cur entries to restore, innermost last
	prepend []ir.Stmt
}

// placedPhi is a phi inserted for the promoted object at index slot.
type placedPhi struct {
	slot int32
	phi  *ir.Phi
}

// undoEntry restores cur[slot] to old when renaming leaves a block.
type undoEntry struct {
	slot int32
	old  *ir.Var
}

// mem2reg promotes every non-escaping scalar stack object to a top-level SSA
// variable, inserting Phi statements at iterated dominance frontiers and
// deleting the AddrOf/Load/Store triples that accessed the object. This
// produces the paper's partial SSA form.
func (b *builder) mem2reg() {
	sc := &b.m2r
	sc.objSlot = make([]int32, len(b.prog.Objects))
	// Phi and undef variables are created below with larger IDs; they are
	// never address temporaries or deleted loads.
	sc.addrSlot = make([]int32, len(b.prog.Vars))
	sc.replaced = make([]*ir.Var, len(b.prog.Vars))
	for _, f := range b.prog.Funcs {
		b.promoteFunc(f)
	}
}

// promotable reports whether obj can be promoted to SSA form.
func (b *builder) promotable(obj *ir.Object) bool {
	if obj.Kind != ir.ObjStack || obj.IsArray || obj.NumFields > 0 {
		return false
	}
	if int(obj.ID) >= len(b.objInfo) {
		return false
	}
	info := b.objInfo[obj.ID]
	if info.typ == nil || info.escaped {
		return false
	}
	// lock_t locals must remain memory objects so lock(&l) can name them;
	// escape analysis already catches &l, but be explicit.
	if basic, ok := info.typ.(*types.Basic); ok && basic.Name == "lock_t" {
		return false
	}
	return true
}

// addrSlotOf returns 1 + the promote index of the object v addresses, or 0.
func (sc *promoteScratch) addrSlotOf(v *ir.Var) int32 {
	if int(v.ID) < len(sc.addrSlot) {
		return sc.addrSlot[v.ID]
	}
	return 0
}

// resolve follows deleted loads to the value they read.
func (sc *promoteScratch) resolve(v *ir.Var) *ir.Var {
	for int(v.ID) < len(sc.replaced) && sc.replaced[v.ID] != nil {
		v = sc.replaced[v.ID]
	}
	return v
}

func (b *builder) promoteFunc(f *ir.Function) {
	sc := &b.m2r
	// Collect promotable objects in first-access order.
	var promote []*ir.Object
	for _, blk := range f.Blocks {
		for _, s := range blk.Stmts {
			if a, ok := s.(*ir.AddrOf); ok && a.Obj.Kind == ir.ObjStack && a.Obj.Func == f {
				if sc.objSlot[a.Obj.ID] == 0 && b.promotable(a.Obj) {
					promote = append(promote, a.Obj)
					sc.objSlot[a.Obj.ID] = int32(len(promote))
				}
			}
		}
	}
	if len(promote) == 0 {
		return
	}

	domInfo := dom.Compute(f)

	// Map address temporaries to the object they point at, and collect each
	// object's storing blocks in block order. Because the builder creates
	// one fresh AddrOf temp per access and non-escaping temps are used
	// exactly once, this mapping is exact for promotable objects.
	for len(sc.defs) < len(promote) {
		sc.defs = append(sc.defs, nil)
	}
	defs := sc.defs[:len(promote)]
	for i := range defs {
		defs[i] = defs[i][:0]
	}
	for _, blk := range f.Blocks {
		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.AddrOf:
				if slot := sc.objSlot[s.Obj.ID]; slot != 0 {
					sc.addrSlot[s.Dst.ID] = slot
					sc.addrs = append(sc.addrs, s.Dst.ID)
				}
			case *ir.Store:
				if slot := sc.addrSlotOf(s.Addr); slot != 0 {
					if d := defs[slot-1]; len(d) == 0 || d[len(d)-1] != blk {
						defs[slot-1] = append(d, blk)
					}
				}
			}
		}
	}

	// Phi placement at iterated dominance frontiers, seeded in block order:
	// phi dst variables are created here, and VarID assignment order must be
	// a pure function of the source for programs built from equal sources
	// to be ir.Isomorphic.
	for len(sc.phis) < len(f.Blocks) {
		sc.phis = append(sc.phis, nil)
	}
	phis := sc.phis[:len(f.Blocks)]
	for i, obj := range promote {
		for _, fb := range domInfo.IteratedFrontier(defs[i]) {
			phi := &ir.Phi{
				Dst:      b.prog.NewVar(b.names.join(obj.Name, ".phi"), f),
				Incoming: make([]*ir.Var, len(fb.Preds)),
			}
			phis[fb.Index] = append(phis[fb.Index], placedPhi{slot: int32(i), phi: phi})
		}
	}

	// Insert phis at block starts in promote order. Phis have no source
	// statement of their own; stamp each with the first positioned
	// statement of its block (falling back to the function's first
	// positioned statement) so no statement carries Line()==0.
	fnLine := 0
	for _, blk := range f.Blocks {
		if fnLine = firstLine(blk.Stmts); fnLine > 0 {
			break
		}
	}
	for _, blk := range f.Blocks {
		placed := phis[blk.Index]
		if len(placed) == 0 {
			continue
		}
		line := firstLine(blk.Stmts)
		if line == 0 {
			line = fnLine
		}
		sc.prepend = sc.prepend[:0]
		for _, p := range placed {
			ir.SetLine(p.phi, line)
			sc.prepend = append(sc.prepend, p.phi)
		}
		blk.Prepend(sc.prepend)
	}

	// Renaming over the dominator tree. cur holds the reaching value of
	// each promoted object; a block's assignments are logged in undo and
	// rolled back once its dominator subtree is done. Deleted statements
	// are nil-ed in place and squeezed out below.
	sc.cur = resetVars(sc.cur, len(promote))
	sc.undef = resetVars(sc.undef, len(promote))
	set := func(slot int32, v *ir.Var) {
		sc.undo = append(sc.undo, undoEntry{slot: slot, old: sc.cur[slot]})
		sc.cur[slot] = v
	}
	// value returns the reaching value of slot, or a fresh definition-free
	// variable for reads of never-written (on some path) promoted locals.
	value := func(slot int32) *ir.Var {
		if v := sc.cur[slot]; v != nil {
			return v
		}
		if sc.undef[slot] == nil {
			sc.undef[slot] = b.prog.NewVar(b.names.join(promote[slot].Name, ".undef"), f)
		}
		return sc.undef[slot]
	}
	var rename func(blk *ir.Block)
	rename = func(blk *ir.Block) {
		mark := len(sc.undo)
		// Phi defs first (they are at the block head).
		for _, p := range phis[blk.Index] {
			set(p.slot, p.phi.Dst)
		}
		for i, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.AddrOf:
				if sc.objSlot[s.Obj.ID] != 0 {
					blk.Stmts[i] = nil
				}
			case *ir.Store:
				if slot := sc.addrSlotOf(s.Addr); slot != 0 {
					set(slot-1, sc.resolve(s.Src))
					blk.Stmts[i] = nil
				}
			case *ir.Load:
				if slot := sc.addrSlotOf(s.Addr); slot != 0 {
					sc.replaced[s.Dst.ID] = value(slot - 1)
					sc.loads = append(sc.loads, s.Dst.ID)
					blk.Stmts[i] = nil
				}
			}
		}
		// Fill phi operands of CFG successors.
		for _, succ := range blk.Succs {
			predIdx := -1
			for i, p := range succ.Preds {
				if p == blk {
					predIdx = i
					break
				}
			}
			if predIdx < 0 {
				continue
			}
			for _, p := range phis[succ.Index] {
				p.phi.Incoming[predIdx] = value(p.slot)
			}
		}
		for _, child := range domInfo.Children(blk) {
			rename(child)
		}
		for len(sc.undo) > mark {
			u := sc.undo[len(sc.undo)-1]
			sc.cur[u.slot] = u.old
			sc.undo = sc.undo[:len(sc.undo)-1]
		}
	}
	rename(f.Entry)

	// Rewrite remaining uses and squeeze out the deleted statements,
	// clearing the vacated tail so it does not keep them alive.
	for _, blk := range f.Blocks {
		kept := blk.Stmts[:0]
		for _, s := range blk.Stmts {
			if s == nil {
				continue
			}
			ir.RewriteUses(s, sc.resolve)
			kept = append(kept, s)
		}
		clear(blk.Stmts[len(kept):])
		blk.Stmts = kept
	}

	// Clear what this function set.
	for _, obj := range promote {
		sc.objSlot[obj.ID] = 0
	}
	for _, id := range sc.addrs {
		sc.addrSlot[id] = 0
	}
	for _, id := range sc.loads {
		sc.replaced[id] = nil
	}
	sc.addrs, sc.loads = sc.addrs[:0], sc.loads[:0]
	for i := range phis {
		phis[i] = phis[i][:0]
	}
}

// firstLine returns the line of the first positioned statement in ss, or
// 0 when none is.
func firstLine(ss []ir.Stmt) int {
	for _, s := range ss {
		if l := ir.LineOf(s); l > 0 {
			return l
		}
	}
	return 0
}

// resetVars returns vs resized to n entries, all nil.
func resetVars(vs []*ir.Var, n int) []*ir.Var {
	if cap(vs) < n {
		return make([]*ir.Var, n)
	}
	vs = vs[:n]
	clear(vs)
	return vs
}
