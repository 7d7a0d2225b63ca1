package irbuild

import (
	"repro/internal/dom"
	"repro/internal/frontend/ast"
	"repro/internal/frontend/token"
	"repro/internal/frontend/types"
	"repro/internal/ir"
)

// Provisional variable IDs while a function is built. A variable gets its
// final ID, its index in Program.Vars, from registerVars, and only if a
// parameter list, a return slot or a statement references it. Until then:
//   - a lowering variable's ID is its sequence number: its creation order
//     within the function;
//   - a phi or undef variable's ID is lateBase plus its index in the
//     function's list of them;
//   - a placeholder's ID is phBase plus its index in the placeholder table.
const (
	lateBase = 1 << 30
	phBase   = 1 << 31
)

// promoteScratch is the working state of promotion. It is shared across
// the functions of one build and reset for each function.
type promoteScratch struct {
	// locals holds the object of each promotable local of the function,
	// by local number - 1.
	locals []*ir.Object
	// acc is the access log: every read and write of a promotable local,
	// in emission order.
	acc []access
	// ph is the placeholder table. phVars holds the placeholder variables
	// themselves in fixed-size chunks, so handed-out pointers stay valid.
	ph     []placeholder
	phVars [][]ir.Var

	runs    []accRun      // by Block.Index: the block's run of acc
	order   []int32       // by local number - 1: 1 + its promote index, or 0
	promote []*ir.Object  // promoted objects, in first-access order
	defs    [][]*ir.Block // by promote index: blocks writing it, in block order
	phis    [][]placedPhi // by Block.Index, in promote order
	cur     []*ir.Var     // by promote index: the renaming environment
	undef   []*ir.Var     // by promote index: its undefined value
	undo    []undoEntry   // cur entries to restore, innermost last
	prepend []ir.Stmt

	late    []*ir.Var // the function's phi and undef variables, in creation order
	lateRef []bool    // by late index: referenced
	bySeq   []*ir.Var // by sequence number: the referenced lowering variables
}

// access is one read or write of a promotable local, recorded by the
// lowering in place of statements.
type access struct {
	blk *ir.Block
	// pos is len(blk.Stmts) when the access was recorded: it precedes
	// statement pos of its block.
	pos   int32
	local int32 // the local's number
	line  int32
	read  bool
	// val is the read's placeholder, or the value written.
	val *ir.Var
}

// accRun is a block's run of the access log, [start, end).
type accRun struct{ start, end int32 }

// placeholder is what a placeholder variable stands for. Renaming sets a
// read's val to the value reaching it. A literal (tmp > 0) stands for the
// definition-free variable of a literal or operator result: it is created,
// as val, at its first use by a statement, under the temporary number and
// sequence number the lowering reserved for it.
type placeholder struct {
	val      *ir.Var
	tmp, seq int32
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

// phChunk is the size, as a shift, of one chunk of placeholder variables.
const phChunk = 10

// placeholder returns a new placeholder variable for the table entry p.
func (b *builder) placeholder(p placeholder) *ir.Var {
	sc := &b.m2r
	i := len(sc.ph)
	sc.ph = append(sc.ph, p)
	if i>>phChunk == len(sc.phVars) {
		sc.phVars = append(sc.phVars, make([]ir.Var, 1<<phChunk))
	}
	v := &sc.phVars[i>>phChunk][i&(1<<phChunk-1)]
	v.ID = ir.VarID(phBase + i)
	return v
}

// literal returns the definition-free temporary of a literal or operator
// result (its points-to set is empty, which models NULL and integers). It
// is a placeholder until a statement uses it, and then only is it created.
func (b *builder) literal() *ir.Var {
	b.tmpCount++
	v := b.placeholder(placeholder{tmp: int32(b.tmpCount), seq: b.seq})
	b.seq++
	return v
}

// read records a read of the promotable local numbered local and returns
// a placeholder for the value read.
func (b *builder) read(local int32) *ir.Var {
	// Number past the address and value temporaries of a memory read, so
	// that later temporaries are named as if the local were not promoted.
	b.tmpCount += 2
	v := b.placeholder(placeholder{})
	b.record(access{local: local, read: true, val: v})
	return v
}

// write records a write of v to the promotable local numbered local.
func (b *builder) write(local int32, v *ir.Var) {
	b.tmpCount++ // likewise, past a memory write's address temporary
	b.record(access{local: local, val: v})
}

func (b *builder) record(a access) {
	a.blk, a.pos, a.line = b.blk, int32(len(b.blk.Stmts)), int32(b.line)
	b.m2r.acc = append(b.m2r.acc, a)
}

// promotable reports whether a local of type t, whose object is obj and
// whose address is never taken, becomes a top-level SSA variable: a
// scalar other than lock_t (lock(&l) must name an object).
func promotable(obj *ir.Object, t types.Type) bool {
	if obj.IsArray || obj.NumFields > 0 || t == nil {
		return false
	}
	basic, ok := t.(*types.Basic)
	return !ok || basic.Name != "lock_t"
}

// blockAcc returns blk's run of the access log.
func (sc *promoteScratch) blockAcc(blk *ir.Block) []access {
	r := sc.runs[blk.Index]
	return sc.acc[r.start:r.end]
}

// promote is mem2reg over the access log of the current function, once
// RemoveUnreachable has fixed its blocks: it places phis at iterated
// dominance frontiers and renames over the dominator tree, giving every
// read the value that reaches it.
func (b *builder) promote() {
	sc := &b.m2r
	f := b.fn
	// Each block's accesses are one run of the log, since emission never
	// returns to a block it has left. Runs of dropped blocks are skipped.
	sc.runs = reset(sc.runs, len(f.Blocks))
	for i := 0; i < len(sc.acc); {
		blk := sc.acc[i].blk
		j := i + 1
		for j < len(sc.acc) && sc.acc[j].blk == blk {
			j++
		}
		if blk.Index < len(f.Blocks) && f.Blocks[blk.Index] == blk {
			sc.runs[blk.Index] = accRun{int32(i), int32(j)}
		}
		i = j
	}

	// Promote in first-access order over the blocks, and collect each
	// promoted object's writing blocks in block order.
	sc.order = reset(sc.order, len(sc.locals))
	sc.promote = sc.promote[:0]
	for _, blk := range f.Blocks {
		for _, a := range sc.blockAcc(blk) {
			slot := sc.order[a.local-1] - 1
			if slot < 0 {
				slot = int32(len(sc.promote))
				sc.promote = append(sc.promote, sc.locals[a.local-1])
				sc.order[a.local-1] = slot + 1
				if int(slot) == len(sc.defs) {
					sc.defs = append(sc.defs, nil)
				}
				sc.defs[slot] = sc.defs[slot][:0]
			}
			if d := sc.defs[slot]; !a.read && (len(d) == 0 || d[len(d)-1] != blk) {
				sc.defs[slot] = append(d, blk)
			}
		}
	}
	promote := sc.promote
	if len(promote) == 0 {
		return
	}
	domInfo := dom.Compute(f)

	// Phi placement at iterated dominance frontiers, seeded in block order:
	// phi dst variables are created here, and their order must be a pure
	// function of the source for programs built from equal sources to be
	// ir.Isomorphic.
	for len(sc.phis) < len(f.Blocks) {
		sc.phis = append(sc.phis, nil)
	}
	phis := sc.phis[:len(f.Blocks)]
	for i := range phis {
		phis[i] = phis[i][:0]
	}
	for i, obj := range promote {
		for _, fb := range domInfo.IteratedFrontier(sc.defs[i]) {
			phi := &ir.Phi{
				Dst:      b.lateVar(b.names.join(obj.Name, ".phi")),
				Incoming: make([]*ir.Var, len(fb.Preds)),
			}
			phis[fb.Index] = append(phis[fb.Index], placedPhi{slot: int32(i), phi: phi})
		}
	}

	// Insert phis at block starts in promote order. Phis have no source
	// statement of their own; stamp each with the first positioned
	// statement or access of its block (falling back to the function's
	// first one) so no statement carries Line()==0.
	fnLine := 0
	for _, blk := range f.Blocks {
		if fnLine = sc.firstLine(blk); fnLine > 0 {
			break
		}
	}
	for _, blk := range f.Blocks {
		placed := phis[blk.Index]
		if len(placed) == 0 {
			continue
		}
		line := sc.firstLine(blk)
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

	sc.cur = reset(sc.cur, len(promote))
	sc.undef = reset(sc.undef, len(promote))
	b.rename(f.Entry, domInfo)
}

// rename walks the dominator subtree of blk. cur holds the reaching value
// of each promoted object; a block's writes are logged in undo and rolled
// back once its subtree is done.
func (b *builder) rename(blk *ir.Block, domInfo *dom.Info) {
	sc := &b.m2r
	mark := len(sc.undo)
	// Phi defs first (they are at the block head).
	for _, p := range sc.phis[blk.Index] {
		sc.set(p.slot, p.phi.Dst)
	}
	for _, a := range sc.blockAcc(blk) {
		slot := sc.order[a.local-1] - 1
		if a.read {
			sc.ph[a.val.ID-phBase].val = b.value(slot)
		} else {
			sc.set(slot, sc.resolveRead(a.val))
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
		for _, p := range sc.phis[succ.Index] {
			p.phi.Incoming[predIdx] = b.value(p.slot)
		}
	}
	for _, child := range domInfo.Children(blk) {
		b.rename(child, domInfo)
	}
	for len(sc.undo) > mark {
		u := sc.undo[len(sc.undo)-1]
		sc.cur[u.slot] = u.old
		sc.undo = sc.undo[:len(sc.undo)-1]
	}
}

// set makes v the reaching value of slot, logging the old one in undo.
func (sc *promoteScratch) set(slot int32, v *ir.Var) {
	sc.undo = append(sc.undo, undoEntry{slot: slot, old: sc.cur[slot]})
	sc.cur[slot] = v
}

// value returns the reaching value of slot, or its undef variable (created
// on first need, definition-free) for reads of a promoted local never
// written on some path.
func (b *builder) value(slot int32) *ir.Var {
	sc := &b.m2r
	if v := sc.cur[slot]; v != nil {
		return v
	}
	if sc.undef[slot] == nil {
		sc.undef[slot] = b.lateVar(b.names.join(sc.promote[slot].Name, ".undef"))
	}
	return sc.undef[slot]
}

// resolveRead follows v through read placeholders to the value read, which
// may still be a literal placeholder.
func (sc *promoteScratch) resolveRead(v *ir.Var) *ir.Var {
	for v.ID >= phBase {
		p := &sc.ph[v.ID-phBase]
		if p.tmp > 0 {
			break
		}
		v = p.val
	}
	return v
}

// firstLine returns the line of the first positioned statement or access
// of blk, or 0 when none is.
func (sc *promoteScratch) firstLine(blk *ir.Block) int {
	acc := sc.blockAcc(blk)
	k := 0
	for i, s := range blk.Stmts {
		for ; k < len(acc) && int(acc[k].pos) <= i; k++ {
			if acc[k].line > 0 {
				return int(acc[k].line)
			}
		}
		if l := ir.LineOf(s); l > 0 {
			return l
		}
	}
	for ; k < len(acc); k++ {
		if acc[k].line > 0 {
			return int(acc[k].line)
		}
	}
	return 0
}

// lateVar creates a phi or undef variable of the current function. These
// follow every function's lowering variables in Program.Vars.
func (b *builder) lateVar(name string) *ir.Var {
	sc := &b.m2r
	v := b.prog.AllocVar(name, b.fn)
	v.ID = ir.VarID(lateBase + len(sc.late))
	sc.late = append(sc.late, v)
	return v
}

// registerVars resolves the placeholders of the current function's
// statements and registers the variables its parameters, return slot and
// statements reference: lowering variables now, in creation order, and phi
// and undef variables on b.lateVars, which build registers after every
// function's lowering variables. Nothing else is ever registered.
func (b *builder) registerVars() {
	sc := &b.m2r
	f := b.fn
	sc.bySeq = reset(sc.bySeq, int(b.seq))
	sc.lateRef = reset(sc.lateRef, len(sc.late))
	for _, p := range f.Params {
		b.mark(p)
	}
	if f.RetVar != nil {
		b.mark(f.RetVar)
	}
	for _, blk := range f.Blocks {
		for _, s := range blk.Stmts {
			if d := ir.Def(s); d != nil {
				b.mark(d)
			}
			ir.RewriteUses(s, b.use)
		}
	}
	for _, v := range sc.bySeq {
		if v != nil {
			b.prog.AddVar(v)
		}
	}
	for i, v := range sc.late {
		if sc.lateRef[i] {
			b.lateVars = append(b.lateVars, v)
		}
	}
}

// use resolves a statement operand to the variable it stands for, creating
// a literal at its first use, and marks that variable referenced.
func (b *builder) use(v *ir.Var) *ir.Var {
	sc := &b.m2r
	for v.ID >= phBase {
		p := &sc.ph[v.ID-phBase]
		if p.val == nil && p.tmp > 0 {
			p.val = b.prog.AllocVar(b.names.joinNum(int(p.tmp), b.fn.Name, ".k"), b.fn)
			p.val.ID = ir.VarID(p.seq)
		}
		v = p.val
	}
	b.mark(v)
	return v
}

// mark records that a resolved variable of the current function is
// referenced.
func (b *builder) mark(v *ir.Var) {
	sc := &b.m2r
	if v.ID >= lateBase {
		sc.lateRef[v.ID-lateBase] = true
	} else {
		sc.bySeq[v.ID] = v
	}
}

// resetFunc clears the per-function promotion state.
func (sc *promoteScratch) resetFunc() {
	sc.locals, sc.acc, sc.ph, sc.late = sc.locals[:0], sc.acc[:0], sc.ph[:0], sc.late[:0]
}

// reset returns s resized to n zero entries, reusing its storage.
func reset[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// escapeScan finds the locals of one function whose address is taken,
// before the function is lowered. It walks the body with the lowering's
// own scoping and numbers declarations in the order declareLocal sees
// them, so escaped[k] answers for the k-th local the lowering declares.
//
// Only &x lets a promotable local escape. The other address-taking
// lowerings, x.f and a[i] of an array, reach only structs and arrays (or
// fail to lower), and those are never promoted.
type escapeScan struct {
	scope   []scopedName // declared locals, innermost last
	starts  []int        // len(scope) at each open scope
	escaped []bool       // by declaration number
}

type scopedName struct {
	name string
	decl int32
}

// scan fills escaped for fd, whose body is lowered after pre (main's
// global initializers) in the scope of its parameters.
func (e *escapeScan) scan(fd *ast.FuncDecl, pre []ast.Stmt) {
	e.scope, e.starts, e.escaped = e.scope[:0], e.starts[:0], e.escaped[:0]
	for _, p := range fd.Params {
		if p.Name != "" {
			e.declare(p.Name)
		}
	}
	for _, s := range pre {
		e.stmt(s)
	}
	for _, s := range fd.Body.Stmts {
		e.stmt(s)
	}
}

func (e *escapeScan) declare(name string) {
	e.scope = append(e.scope, scopedName{name: name, decl: int32(len(e.escaped))})
	e.escaped = append(e.escaped, false)
}

func (e *escapeScan) push() { e.starts = append(e.starts, len(e.scope)) }
func (e *escapeScan) pop() {
	n := len(e.starts) - 1
	e.scope = e.scope[:e.starts[n]]
	e.starts = e.starts[:n]
}

// stmt visits s as lowerStmt does: the same scopes, and declarations in
// the same order.
func (e *escapeScan) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		e.push()
		for _, st := range s.Stmts {
			e.stmt(st)
		}
		e.pop()
	case *ast.DeclStmt:
		e.declare(s.Decl.Name)
		if s.Decl.Init != nil {
			e.expr(s.Decl.Init)
		}
	case *ast.AssignStmt:
		e.expr(s.RHS)
		e.expr(s.LHS)
	case *ast.ExprStmt:
		e.expr(s.X)
	case *ast.IfStmt:
		e.expr(s.Cond)
		e.stmt(s.Then)
		if s.Else != nil {
			e.stmt(s.Else)
		}
	case *ast.WhileStmt:
		e.expr(s.Cond)
		e.stmt(s.Body)
	case *ast.ForStmt:
		e.push()
		if s.Init != nil {
			e.stmt(s.Init)
		}
		if s.Cond != nil {
			e.expr(s.Cond)
		}
		e.stmt(s.Body)
		if s.Post != nil {
			e.stmt(s.Post)
		}
		e.pop()
	case *ast.ReturnStmt:
		if s.X != nil {
			e.expr(s.X)
		}
	case *ast.JoinStmt:
		e.expr(s.Handle)
	case *ast.FreeStmt:
		e.expr(s.X)
	case *ast.LockStmt:
		e.expr(s.Ptr)
	case *ast.UnlockStmt:
		e.expr(s.Ptr)
	}
}

// expr marks the local x of every &x in x.
func (e *escapeScan) expr(x ast.Expr) {
	switch x := x.(type) {
	case *ast.Unary:
		if id, ok := x.X.(*ast.Ident); ok && x.Op == token.AMP {
			for i := len(e.scope) - 1; i >= 0; i-- {
				if e.scope[i].name == id.Name {
					e.escaped[e.scope[i].decl] = true
					break
				}
			}
			return
		}
		e.expr(x.X)
	case *ast.Binary:
		e.expr(x.X)
		e.expr(x.Y)
	case *ast.Index:
		e.expr(x.X)
		e.expr(x.I)
	case *ast.FieldSel:
		e.expr(x.X)
	case *ast.CallExpr:
		e.expr(x.Fun)
		for _, a := range x.Args {
			e.expr(a)
		}
	case *ast.SpawnExpr:
		e.expr(x.Routine)
		if x.Arg != nil {
			e.expr(x.Arg)
		}
	}
}
