// Package irbuild lowers a MiniC AST into the partial-SSA IR.
//
// The paper gets its partial SSA from clang followed by mem2reg. irbuild
// goes there directly, one function at a time. Before lowering a function
// it finds the locals whose address is taken (escapeScan). Every other
// scalar local is promotable. Accesses to globals, to address-taken locals
// and through pointers are lowered to AddrOf/Load/Store through fresh
// temporaries. A read or write of a promotable local is only recorded in
// an access log, and a read yields a placeholder. mem2reg (in mem2reg.go)
// then runs on that log: it places Phi statements and gives each read the
// value that reaches it. The result is the paper's partial SSA form:
// top-level variables in T (SSA) and address-taken variables in A
// (accessed only via Load/Store). Program.Vars keeps only the variables
// something references: each function's lowering variables in creation
// order, then every function's phi and undef variables.
package irbuild

import (
	"fmt"
	"strconv"
	"unsafe"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/token"
	"repro/internal/frontend/types"
	"repro/internal/ir"
)

// symbol binds a source name to its memory object and type.
type symbol struct {
	obj *ir.Object
	typ types.Type
	// local is the number of a promotable local (1 for the function's
	// first), or 0 when accesses go through memory.
	local int32
}

// local is one entry of the block-scoped local symbol stack.
type local struct {
	name string
	sym  symbol
}

type builder struct {
	prog *ir.Program
	file *ast.File

	globals map[string]symbol
	funcs   map[string]*ast.FuncDecl // first declaration of each name
	names   nameSlab
	esc     escapeScan
	m2r     promoteScratch
	// lateVars are the referenced phi and undef variables of the functions
	// built so far; build registers them after every lowering variable.
	lateVars []*ir.Var
	// slots is the shared statement-slot chunk the active block appends
	// into (see startBlock).
	slots []ir.Stmt

	// Per-function state.
	fn          *ir.Function
	blk         *ir.Block
	locals      []local // innermost declaration last
	scopeStarts []int   // len(locals) at each open scope
	loopStack   []int
	loopCounter int
	breaks      []*ir.Block
	conts       []*ir.Block
	tmpCount    int
	seq         int32 // variables created or reserved (see lateBase)
	decls       int   // locals declared
	line        int
}

// newBlock creates a block stamped with the current lexical loop stack.
func (b *builder) newBlock(comment string) *ir.Block {
	blk := b.fn.NewBlock(comment)
	blk.Loops = append([]int(nil), b.loopStack...)
	return blk
}

// curLoopID returns the innermost enclosing loop ID (0 when outside loops).
func (b *builder) curLoopID() int {
	if len(b.loopStack) == 0 {
		return 0
	}
	return b.loopStack[len(b.loopStack)-1]
}

// Build lowers file into a finalized partial-SSA program. The returned error
// reports unresolved names or malformed constructs.
func Build(file *ast.File) (*ir.Program, error) {
	b := &builder{
		prog:    ir.NewProgram(),
		file:    file,
		globals: map[string]symbol{},
		funcs:   map[string]*ast.FuncDecl{},
	}
	if err := b.build(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// BuildChecked is Build under a clearer name for callers migrating off the
// old panicking MustBuild: lowering failures (unresolved names, malformed
// constructs) are positioned errors, never panics.
func BuildChecked(file *ast.File) (*ir.Program, error) {
	return Build(file)
}

func (b *builder) build() error {
	// Declare globals.
	for _, g := range b.file.Globals {
		obj := b.prog.NewObject(ir.ObjGlobal, g.Name, nil)
		noteObjType(obj, g.Type)
		b.globals[g.Name] = symbol{obj: obj, typ: g.Type}
	}

	// Declare all functions first so calls and function pointers resolve
	// regardless of declaration order.
	for _, fd := range b.file.Funcs {
		if _, ok := b.funcs[fd.Name]; !ok {
			b.funcs[fd.Name] = fd
		}
		if fd.Body == nil {
			continue
		}
		if b.prog.FuncByName[fd.Name] != nil {
			return fmt.Errorf("%s: duplicate function %q", fd.P, fd.Name)
		}
		b.prog.NewFunc(fd.Name)
	}
	if b.prog.Main == nil {
		return fmt.Errorf("program has no main function")
	}

	// Inject global initializers at the top of main, in declaration order.
	var inits []ast.Stmt
	for _, g := range b.file.Globals {
		if g.Init != nil {
			inits = append(inits, &ast.AssignStmt{
				P:   g.P,
				LHS: &ast.Ident{P: g.P, Name: g.Name},
				RHS: g.Init,
			})
		}
	}

	for _, fd := range b.file.Funcs {
		if fd.Body == nil {
			continue
		}
		pre := inits
		if fd.Name != "main" {
			pre = nil
		}
		if err := b.buildFunc(fd, pre); err != nil {
			return err
		}
	}

	for _, v := range b.lateVars {
		b.prog.AddVar(v)
	}
	b.prog.Finalize()
	return nil
}

func noteObjType(obj *ir.Object, t types.Type) {
	obj.NumFields = types.NumFields(t)
	if _, isArr := t.(*types.Array); isArr {
		obj.IsArray = true
	}
}

func (b *builder) pushScope() { b.scopeStarts = append(b.scopeStarts, len(b.locals)) }
func (b *builder) popScope() {
	n := len(b.scopeStarts) - 1
	b.locals = b.locals[:b.scopeStarts[n]]
	b.scopeStarts = b.scopeStarts[:n]
}

func (b *builder) lookup(name string) (symbol, bool) {
	for i := len(b.locals) - 1; i >= 0; i-- {
		if b.locals[i].name == name {
			return b.locals[i].sym, true
		}
	}
	s, ok := b.globals[name]
	return s, ok
}

func (b *builder) declareLocal(name string, t types.Type) symbol {
	obj := b.prog.NewObject(ir.ObjStack, b.names.join(b.fn.Name, ".", name), b.fn)
	noteObjType(obj, t)
	s := symbol{obj: obj, typ: t}
	if !b.esc.escaped[b.decls] && promotable(obj, t) {
		b.m2r.locals = append(b.m2r.locals, obj)
		s.local = int32(len(b.m2r.locals))
	}
	b.decls++
	b.locals = append(b.locals, local{name: name, sym: s})
	return s
}

// nameSlab carves variable and object names out of shared byte chunks: a
// build names hundreds of thousands of temporaries, and one string
// allocation each dominated the build's allocation count. Bytes are only
// ever appended to a chunk, never rewritten, so every carved string stays
// valid while any name still references its chunk.
type nameSlab struct{ buf []byte }

// nameChunk is the slab chunk size; names longer than it get their own.
const nameChunk = 16 << 10

// join returns the concatenation of parts.
func (s *nameSlab) join(parts ...string) string { return s.joinNum(-1, parts...) }

// joinNum returns the concatenation of parts followed by n in decimal, or
// by nothing when n is negative.
func (s *nameSlab) joinNum(n int, parts ...string) string {
	size := 20 // the longest decimal int
	for _, p := range parts {
		size += len(p)
	}
	if cap(s.buf)-len(s.buf) < size {
		s.buf = make([]byte, 0, max(nameChunk, size))
	}
	start := len(s.buf)
	for _, p := range parts {
		s.buf = append(s.buf, p...)
	}
	if n >= 0 {
		s.buf = strconv.AppendInt(s.buf, int64(n), 10)
	}
	name := s.buf[start:]
	return unsafe.String(unsafe.SliceData(name), len(name))
}

// newVar creates a variable of the current function; registerVars
// registers it if anything references it.
func (b *builder) newVar(name string) *ir.Var {
	v := b.prog.AllocVar(name, b.fn)
	v.ID = ir.VarID(b.seq)
	b.seq++
	return v
}

func (b *builder) temp(prefix string) *ir.Var {
	b.tmpCount++
	return b.newVar(b.names.joinNum(b.tmpCount, b.fn.Name, ".", prefix))
}

// storeLocal lowers a write of v to the local sym: a recorded access for a
// promotable local, else an AddrOf and a Store.
func (b *builder) storeLocal(sym symbol, v *ir.Var) {
	if sym.local != 0 {
		b.write(sym.local, v)
		return
	}
	addr := b.temp("a")
	b.emit(&ir.AddrOf{Dst: addr, Obj: sym.obj})
	b.emit(&ir.Store{Addr: addr, Src: v})
}

func (b *builder) emit(s ir.Stmt) {
	ir.SetLine(s, b.line)
	b.blk.Append(s)
}

func (b *builder) setPos(p token.Pos) { b.line = p.Line }

// buildFunc lowers, promotes and registers the variables of one function
// body. pre is a list of statements (global initializers) to lower before
// the body; only main receives them.
func (b *builder) buildFunc(fd *ast.FuncDecl, pre []ast.Stmt) error {
	b.fn = b.prog.FuncByName[fd.Name]
	b.startBlock(b.fn.NewBlock("entry"))
	defer b.startBlock(nil)
	b.tmpCount, b.seq, b.decls = 0, 0, 0
	b.m2r.resetFunc()
	b.esc.scan(fd, pre)
	// Parameter spills below are emitted before any statement calls setPos,
	// so stamp them with the declaration's own line.
	b.setPos(fd.P)
	b.pushScope()
	defer b.popScope()

	// Parameters: an SSA variable plus a backing local object. The entry
	// block stores the parameter into its object when its address escapes;
	// otherwise the store is a write access that promotion turns back into
	// the parameter's value.
	for _, p := range fd.Params {
		pv := b.newVar(b.names.join(fd.Name, ".", p.Name))
		b.fn.Params = append(b.fn.Params, pv)
		if p.Name == "" {
			continue
		}
		b.storeLocal(b.declareLocal(p.Name, p.Type), pv)
	}
	if !fd.Ret.Equal(types.Void) {
		b.fn.RetVar = b.newVar(b.names.join(fd.Name, ".$ret"))
	}

	var err error
	safeLower := func(s ast.Stmt) {
		if err == nil {
			err = b.lowerStmt(s)
		}
	}
	for _, s := range pre {
		safeLower(s)
	}
	for _, s := range fd.Body.Stmts {
		safeLower(s)
	}
	if err != nil {
		return fmt.Errorf("in %s: %w", fd.Name, err)
	}

	// Implicit return at fall-off.
	if !b.blockTerminated() {
		b.emit(&ir.Ret{})
	}
	b.startBlock(nil)
	ir.RemoveUnreachable(b.fn)
	b.promote()
	b.registerVars()
	return nil
}

func (b *builder) blockTerminated() bool {
	n := len(b.blk.Stmts)
	if n == 0 {
		return false
	}
	_, isRet := b.blk.Stmts[n-1].(*ir.Ret)
	return isRet
}

// slotChunk is the statement-slot chunk size; minFreeSlots is the free
// tail below which an activated block gets a fresh chunk instead.
const (
	slotChunk    = 8192
	minFreeSlots = 64
)

// startBlock switches emission to blk (nil: none). Emission never returns to
// a block it has left, so the active block appends straight into the free
// tail of the shared slot chunk, and leaving it seals its statements there
// with capacity equal to length: one allocation per chunk instead of a
// growing array per block, and no later append can overwrite a neighbour.
// A block that outgrows the tail moves to its own array as usual.
func (b *builder) startBlock(blk *ir.Block) {
	if old := b.blk; old != nil {
		n := len(old.Stmts)
		if free := b.slots[len(b.slots):cap(b.slots)]; n > 0 && len(free) > 0 {
			if &old.Stmts[0] == &free[0] {
				b.slots = b.slots[:len(b.slots)+n]
			} else {
				// The block outgrew the tail and moved: drop the copies it
				// left there, which would keep statements alive.
				clear(free)
			}
		}
		if n == 0 {
			old.Stmts = nil
		} else {
			old.Stmts = old.Stmts[:n:n]
		}
	}
	b.blk = blk
	if blk != nil && len(blk.Stmts) == 0 {
		if cap(b.slots)-len(b.slots) < minFreeSlots {
			b.slots = make([]ir.Stmt, 0, slotChunk)
		}
		blk.Stmts = b.slots[len(b.slots):len(b.slots)]
	}
}

// ---- Statements ----

func (b *builder) lowerStmt(s ast.Stmt) error {
	b.setPos(s.Pos())
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.pushScope()
		defer b.popScope()
		for _, st := range s.Stmts {
			if err := b.lowerStmt(st); err != nil {
				return err
			}
		}
		return nil

	case *ast.DeclStmt:
		sym := b.declareLocal(s.Decl.Name, s.Decl.Type)
		if s.Decl.Init != nil {
			v, err := b.lowerExpr(s.Decl.Init, s.Decl.Type)
			if err != nil {
				return err
			}
			b.storeLocal(sym, v)
		}
		return nil

	case *ast.AssignStmt:
		hint := b.typeOf(s.LHS)
		v, err := b.lowerExpr(s.RHS, hint)
		if err != nil {
			return err
		}
		if id, ok := s.LHS.(*ast.Ident); ok {
			if sym, ok := b.lookup(id.Name); ok && sym.local != 0 {
				b.setPos(id.P)
				b.write(sym.local, v)
				b.setPos(s.Pos())
				return nil
			}
		}
		addr, err := b.lowerAddr(s.LHS)
		if err != nil {
			return err
		}
		b.setPos(s.Pos())
		b.emit(&ir.Store{Addr: addr, Src: v})
		return nil

	case *ast.ExprStmt:
		_, err := b.lowerExpr(s.X, nil)
		return err

	case *ast.IfStmt:
		if _, err := b.lowerExpr(s.Cond, nil); err != nil {
			return err
		}
		condBlk := b.blk
		thenBlk := b.newBlock("if.then")
		var elseBlk *ir.Block
		doneBlk := b.newBlock("if.done")
		condBlk.AddEdge(thenBlk)
		if s.Else != nil {
			elseBlk = b.newBlock("if.else")
			condBlk.AddEdge(elseBlk)
		} else {
			condBlk.AddEdge(doneBlk)
		}
		b.startBlock(thenBlk)
		if err := b.lowerStmt(s.Then); err != nil {
			return err
		}
		if !b.blockTerminated() {
			b.blk.AddEdge(doneBlk)
		}
		if s.Else != nil {
			b.startBlock(elseBlk)
			if err := b.lowerStmt(s.Else); err != nil {
				return err
			}
			if !b.blockTerminated() {
				b.blk.AddEdge(doneBlk)
			}
		}
		b.startBlock(doneBlk)
		return nil

	case *ast.WhileStmt:
		doneBlk := b.newBlock("while.done")
		b.loopCounter++
		b.loopStack = append(b.loopStack, b.loopCounter)
		headBlk := b.newBlock("while.head")
		bodyBlk := b.newBlock("while.body")
		b.blk.AddEdge(headBlk)
		b.startBlock(headBlk)
		if _, err := b.lowerExpr(s.Cond, nil); err != nil {
			b.loopStack = b.loopStack[:len(b.loopStack)-1]
			return err
		}
		b.blk.AddEdge(bodyBlk)
		b.blk.AddEdge(doneBlk)
		b.startBlock(bodyBlk)
		b.breaks = append(b.breaks, doneBlk)
		b.conts = append(b.conts, headBlk)
		err := b.lowerStmt(s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		if err != nil {
			b.loopStack = b.loopStack[:len(b.loopStack)-1]
			return err
		}
		if !b.blockTerminated() {
			b.blk.AddEdge(headBlk)
		}
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.startBlock(doneBlk)
		return nil

	case *ast.ForStmt:
		b.pushScope()
		defer b.popScope()
		if s.Init != nil {
			if err := b.lowerStmt(s.Init); err != nil {
				return err
			}
		}
		doneBlk := b.newBlock("for.done")
		b.loopCounter++
		b.loopStack = append(b.loopStack, b.loopCounter)
		popLoop := func() { b.loopStack = b.loopStack[:len(b.loopStack)-1] }
		headBlk := b.newBlock("for.head")
		bodyBlk := b.newBlock("for.body")
		postBlk := b.newBlock("for.post")
		b.blk.AddEdge(headBlk)
		b.startBlock(headBlk)
		if s.Cond != nil {
			if _, err := b.lowerExpr(s.Cond, nil); err != nil {
				popLoop()
				return err
			}
		}
		b.blk.AddEdge(bodyBlk)
		b.blk.AddEdge(doneBlk)
		b.startBlock(bodyBlk)
		b.breaks = append(b.breaks, doneBlk)
		b.conts = append(b.conts, postBlk)
		err := b.lowerStmt(s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		if err != nil {
			popLoop()
			return err
		}
		if !b.blockTerminated() {
			b.blk.AddEdge(postBlk)
		}
		b.startBlock(postBlk)
		if s.Post != nil {
			if err := b.lowerStmt(s.Post); err != nil {
				popLoop()
				return err
			}
		}
		b.blk.AddEdge(headBlk)
		popLoop()
		b.startBlock(doneBlk)
		return nil

	case *ast.ReturnStmt:
		var v *ir.Var
		if s.X != nil {
			var err error
			v, err = b.lowerExpr(s.X, nil)
			if err != nil {
				return err
			}
		}
		b.setPos(s.Pos())
		b.emit(&ir.Ret{Val: v})
		b.startBlock(b.newBlock("dead"))
		return nil

	case *ast.BreakStmt:
		if len(b.breaks) == 0 {
			return fmt.Errorf("%s: break outside loop", s.P)
		}
		b.blk.AddEdge(b.breaks[len(b.breaks)-1])
		b.startBlock(b.newBlock("dead"))
		return nil

	case *ast.ContinueStmt:
		if len(b.conts) == 0 {
			return fmt.Errorf("%s: continue outside loop", s.P)
		}
		b.blk.AddEdge(b.conts[len(b.conts)-1])
		b.startBlock(b.newBlock("dead"))
		return nil

	case *ast.JoinStmt:
		h, err := b.lowerExpr(s.Handle, types.Thread)
		if err != nil {
			return err
		}
		b.setPos(s.Pos())
		j := &ir.Join{Handle: h}
		j.InLoop = len(b.loopStack) > 0
		j.LoopID = b.curLoopID()
		b.emit(j)
		return nil

	case *ast.FreeStmt:
		v, err := b.lowerExpr(s.X, nil)
		if err != nil {
			return err
		}
		b.setPos(s.Pos())
		b.emit(&ir.Free{Ptr: v, ArgText: exprText(s.X)})
		return nil

	case *ast.LockStmt:
		ptr, err := b.lowerExpr(s.Ptr, types.PointerTo(types.Lock))
		if err != nil {
			return err
		}
		b.setPos(s.Pos())
		b.emit(&ir.Lock{Ptr: ptr})
		return nil

	case *ast.UnlockStmt:
		ptr, err := b.lowerExpr(s.Ptr, types.PointerTo(types.Lock))
		if err != nil {
			return err
		}
		b.setPos(s.Pos())
		b.emit(&ir.Unlock{Ptr: ptr})
		return nil
	}
	return fmt.Errorf("%s: unsupported statement %T", s.Pos(), s)
}

// ---- Expressions ----

// lowerExpr lowers e to a value held in a fresh or existing top-level
// variable. hint, when non-nil, types untyped allocations (malloc).
func (b *builder) lowerExpr(e ast.Expr, hint types.Type) (*ir.Var, error) {
	b.setPos(e.Pos())
	switch e := e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.NullLit:
		return b.literal(), nil

	case *ast.Ident:
		if sym, ok := b.lookup(e.Name); ok {
			// Array-typed variables decay to the array's address.
			if _, isArr := sym.typ.(*types.Array); isArr {
				addr := b.temp("a")
				b.emit(&ir.AddrOf{Dst: addr, Obj: sym.obj})
				return addr, nil
			}
			if sym.local != 0 {
				return b.read(sym.local), nil
			}
			addr := b.temp("a")
			b.emit(&ir.AddrOf{Dst: addr, Obj: sym.obj})
			val := b.temp("t")
			b.emit(&ir.Load{Dst: val, Addr: addr})
			return val, nil
		}
		if f := b.prog.FuncByName[e.Name]; f != nil {
			fp := b.temp("fp")
			b.emit(&ir.AddrOf{Dst: fp, Obj: f.Obj})
			return fp, nil
		}
		return nil, fmt.Errorf("%s: undefined name %q", e.P, e.Name)

	case *ast.Unary:
		switch e.Op {
		case token.STAR:
			addr, err := b.lowerExpr(e.X, nil)
			if err != nil {
				return nil, err
			}
			val := b.temp("t")
			b.setPos(e.Pos())
			b.emit(&ir.Load{Dst: val, Addr: addr})
			return val, nil
		case token.AMP:
			return b.lowerAddr(e.X)
		default: // arithmetic/logical: operand effects only
			if _, err := b.lowerExpr(e.X, nil); err != nil {
				return nil, err
			}
			return b.literal(), nil
		}

	case *ast.Binary:
		if _, err := b.lowerExpr(e.X, nil); err != nil {
			return nil, err
		}
		if _, err := b.lowerExpr(e.Y, nil); err != nil {
			return nil, err
		}
		return b.literal(), nil

	case *ast.Index, *ast.FieldSel:
		addr, err := b.lowerAddr(e)
		if err != nil {
			return nil, err
		}
		// An array-typed element (e.g. field of array type) decays to its
		// address rather than being loaded.
		if t := b.typeOf(e); t != nil {
			if _, isArr := t.(*types.Array); isArr {
				return addr, nil
			}
		}
		val := b.temp("t")
		b.setPos(e.Pos())
		b.emit(&ir.Load{Dst: val, Addr: addr})
		return val, nil

	case *ast.MallocExpr:
		obj := b.prog.NewObject(ir.ObjHeap, fmt.Sprintf("heap@%s:%d", b.fn.Name, e.P.Line), b.fn)
		if pt := types.Deref(orVoidPtr(hint)); pt != nil {
			noteObjType(obj, pt)
		}
		dst := b.temp("m")
		b.emit(&ir.AddrOf{Dst: dst, Obj: obj})
		return dst, nil

	case *ast.SpawnExpr:
		return b.lowerSpawn(e)

	case *ast.CallExpr:
		return b.lowerCall(e)
	}
	return nil, fmt.Errorf("%s: unsupported expression %T", e.Pos(), e)
}

func orVoidPtr(t types.Type) types.Type {
	if t == nil {
		return types.PointerTo(types.Void)
	}
	return t
}

func (b *builder) lowerSpawn(e *ast.SpawnExpr) (*ir.Var, error) {
	fork := &ir.Fork{}
	if id, ok := e.Routine.(*ast.Ident); ok {
		if _, isVar := b.lookup(id.Name); !isVar {
			if f := b.prog.FuncByName[id.Name]; f != nil {
				fork.Routine = f
				f.IsThreadEntry = true
			} else {
				return nil, fmt.Errorf("%s: undefined spawn routine %q", id.P, id.Name)
			}
		}
	}
	if fork.Routine == nil {
		rv, err := b.lowerExpr(e.Routine, nil)
		if err != nil {
			return nil, err
		}
		fork.RoutineVar = rv
	}
	if e.Arg != nil {
		av, err := b.lowerExpr(e.Arg, nil)
		if err != nil {
			return nil, err
		}
		fork.Arg = av
	}
	b.setPos(e.Pos())
	fork.Dst = b.temp("tid")
	fork.Handle = b.prog.NewObject(ir.ObjThread, fmt.Sprintf("thread@%s:%d", b.fn.Name, e.P.Line), b.fn)
	fork.InLoop = len(b.loopStack) > 0
	fork.LoopID = b.curLoopID()
	b.emit(fork)
	return fork.Dst, nil
}

func (b *builder) lowerCall(e *ast.CallExpr) (*ir.Var, error) {
	call := &ir.Call{}
	resultUsed := true // conservatively materialize a result variable

	if id, ok := e.Fun.(*ast.Ident); ok {
		if _, isVar := b.lookup(id.Name); !isVar {
			f := b.prog.FuncByName[id.Name]
			if f == nil {
				// Calls to undeclared externals are modeled as no-ops with an
				// opaque result (C-style implicit declaration).
				for _, a := range e.Args {
					if _, err := b.lowerExpr(a, nil); err != nil {
						return nil, err
					}
				}
				return b.literal(), nil
			}
			call.Callee = f
		}
	}
	if call.Callee == nil {
		fv, err := b.lowerExpr(e.Fun, nil)
		if err != nil {
			return nil, err
		}
		call.CalleeVar = fv
	}
	for _, a := range e.Args {
		av, err := b.lowerExpr(a, nil)
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, av)
	}
	if resultUsed {
		call.Dst = b.temp("r")
	}
	b.setPos(e.Pos())
	b.emit(call)
	return call.Dst, nil
}

// lowerAddr lowers e as an lvalue, returning a variable holding its
// address. A promotable local reaches it only on paths that fail to lower
// (x.f of a scalar x): &x makes x escape (see escapeScan), and an
// assignment to x is a write access.
func (b *builder) lowerAddr(e ast.Expr) (*ir.Var, error) {
	b.setPos(e.Pos())
	switch e := e.(type) {
	case *ast.Ident:
		if sym, ok := b.lookup(e.Name); ok {
			addr := b.temp("a")
			b.emit(&ir.AddrOf{Dst: addr, Obj: sym.obj})
			return addr, nil
		}
		if f := b.prog.FuncByName[e.Name]; f != nil {
			// &funcname == funcname: the function object's address.
			fp := b.temp("fp")
			b.emit(&ir.AddrOf{Dst: fp, Obj: f.Obj})
			return fp, nil
		}
		return nil, fmt.Errorf("%s: undefined name %q", e.P, e.Name)

	case *ast.Unary:
		if e.Op == token.STAR {
			// &*p == p; the lvalue *p has address value(p).
			return b.lowerExpr(e.X, nil)
		}
		return nil, fmt.Errorf("%s: expression is not an lvalue", e.P)

	case *ast.FieldSel:
		var base *ir.Var
		var baseType types.Type
		var err error
		if e.Arrow {
			base, err = b.lowerExpr(e.X, nil)
			baseType = types.Deref(orVoidPtr(b.typeOf(e.X)))
		} else {
			// x.f requires x to be an lvalue; its object is address-exposed
			// through the field access.
			base, err = b.lowerAddr(e.X)
			baseType = b.typeOf(e.X)
		}
		if err != nil {
			return nil, err
		}
		st, _ := baseType.(*types.Struct)
		idx := -1
		if st != nil {
			idx = st.FieldIndex(e.Name)
		}
		if idx < 0 {
			return nil, fmt.Errorf("%s: unknown field %q", e.P, e.Name)
		}
		dst := b.temp("f")
		b.setPos(e.Pos())
		b.emit(&ir.Gep{Dst: dst, Base: base, Field: idx})
		return dst, nil

	case *ast.Index:
		// Arrays are monolithic: the element address aliases the array
		// object. For pointers, p[i] aliases *p.
		if _, err := b.lowerExpr(e.I, nil); err != nil {
			return nil, err
		}
		xt := b.typeOf(e.X)
		if _, isArr := xt.(*types.Array); isArr {
			base, err := b.lowerAddr(e.X)
			if err != nil {
				return nil, err
			}
			dst := b.temp("e")
			b.setPos(e.Pos())
			b.emit(&ir.Gep{Dst: dst, Base: base, Field: -1})
			return dst, nil
		}
		base, err := b.lowerExpr(e.X, nil)
		if err != nil {
			return nil, err
		}
		dst := b.temp("e")
		b.setPos(e.Pos())
		b.emit(&ir.Gep{Dst: dst, Base: base, Field: -1})
		return dst, nil
	}
	return nil, fmt.Errorf("%s: expression is not an lvalue (%T)", e.Pos(), e)
}

// exprText renders e approximately as source text; used for free-site
// metadata so diagnostics can name the freed expression in user terms.
// It covers the lvalue-ish shapes free arguments take.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.Unary:
		switch e.Op {
		case token.STAR:
			return "*" + exprText(e.X)
		case token.AMP:
			return "&" + exprText(e.X)
		}
	case *ast.FieldSel:
		sep := "."
		if e.Arrow {
			sep = "->"
		}
		return exprText(e.X) + sep + e.Name
	case *ast.Index:
		return exprText(e.X) + "[" + exprText(e.I) + "]"
	case *ast.IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.MallocExpr:
		return "malloc()"
	}
	return "<expr>"
}

// ---- Type inference (best effort; used for field indices and hints) ----

func (b *builder) typeOf(e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if sym, ok := b.lookup(e.Name); ok {
			return sym.typ
		}
		if b.prog.FuncByName[e.Name] != nil {
			return b.funcs[e.Name].Signature()
		}
		return nil
	case *ast.IntLit, *ast.Binary:
		return types.Int
	case *ast.StringLit:
		return types.PointerTo(types.Char)
	case *ast.NullLit:
		return types.PointerTo(types.Void)
	case *ast.Unary:
		switch e.Op {
		case token.STAR:
			return types.Deref(orVoidPtr(b.typeOf(e.X)))
		case token.AMP:
			if t := b.typeOf(e.X); t != nil {
				return types.PointerTo(t)
			}
			return types.PointerTo(types.Void)
		}
		return types.Int
	case *ast.FieldSel:
		var st *types.Struct
		if e.Arrow {
			st, _ = types.Deref(orVoidPtr(b.typeOf(e.X))).(*types.Struct)
		} else {
			st, _ = b.typeOf(e.X).(*types.Struct)
		}
		if st != nil {
			if i := st.FieldIndex(e.Name); i >= 0 {
				return st.Fields[i].Type
			}
		}
		return nil
	case *ast.Index:
		switch xt := b.typeOf(e.X).(type) {
		case *types.Array:
			return xt.Elem
		case *types.Pointer:
			return xt.Elem
		}
		return nil
	case *ast.CallExpr:
		if ft, ok := b.typeOf(e.Fun).(*types.Func); ok {
			return ft.Ret
		}
		if pt, ok := b.typeOf(e.Fun).(*types.Pointer); ok {
			if ft, ok := pt.Elem.(*types.Func); ok {
				return ft.Ret
			}
		}
		return nil
	case *ast.MallocExpr:
		return types.PointerTo(types.Void)
	case *ast.SpawnExpr:
		return types.Thread
	}
	return nil
}
