// Package ir defines the partial-SSA intermediate representation consumed by
// every analysis in this repository.
//
// Following the paper (Section 2.1), the set of program variables V is split
// into two disjoint sets:
//
//   - T: top-level variables (Var), kept in SSA form with explicit Phi
//     statements. Their def-use chains are directly visible in the IR.
//   - A: address-taken variables (Object), accessed only indirectly via Load
//     and Store. These include globals, address-taken locals, heap objects
//     (one per allocation site), functions (for function pointers), thread
//     handles (one per fork site), and per-field sub-objects of structs.
//
// After construction a program contains only the statement forms the paper
// analyzes: AddrOf (p = &a), Copy (p = q), Load (p = *q), Store (*p = q),
// Phi, Gep (field address, for field sensitivity), Call/Ret, and the
// synchronization forms Fork, Join, Lock and Unlock.
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// VarID identifies a top-level SSA variable within a Program.
type VarID uint32

// ObjID identifies an abstract memory object within a Program.
type ObjID uint32

// StmtID identifies a statement within a Program. IDs are dense and assigned
// by Program.Finalize in a deterministic order, so analyses may index slices
// by StmtID.
type StmtID uint32

// NoStmt is a sentinel for "no statement".
const NoStmt = StmtID(^uint32(0))

// Var is a top-level SSA variable (a member of T).
type Var struct {
	ID   VarID
	Name string
	// Func is the function the variable belongs to; nil for the handful of
	// synthetic variables created during def-use graph construction.
	Func *Function
}

func (v *Var) String() string {
	if v == nil {
		return "<nil-var>"
	}
	return v.Name
}

// ObjKind classifies abstract memory objects.
type ObjKind uint8

const (
	// ObjGlobal is a global variable object.
	ObjGlobal ObjKind = iota
	// ObjStack is an address-taken local variable.
	ObjStack
	// ObjHeap is a heap object named by its allocation site.
	ObjHeap
	// ObjFunc is the object standing for a function (function pointers).
	ObjFunc
	// ObjField is a per-field sub-object of a struct object.
	ObjField
	// ObjThread is the abstract thread handle created at a fork site.
	ObjThread
)

func (k ObjKind) String() string {
	switch k {
	case ObjGlobal:
		return "global"
	case ObjStack:
		return "stack"
	case ObjHeap:
		return "heap"
	case ObjFunc:
		return "func"
	case ObjField:
		return "field"
	case ObjThread:
		return "thread"
	}
	return fmt.Sprintf("ObjKind(%d)", uint8(k))
}

// Object is an abstract memory object (a member of A).
type Object struct {
	ID   ObjID
	Kind ObjKind
	Name string

	// Func is the enclosing function for ObjStack and ObjHeap objects, the
	// named function for ObjFunc objects, and nil for globals.
	Func *Function

	// IsArray marks objects that are (or contain) arrays; arrays are
	// analyzed monolithically and are never strong-update targets.
	IsArray bool

	// NumFields is the number of struct fields for aggregate objects; 0 for
	// scalars. Field sub-objects are materialized lazily by Program.FieldObj.
	NumFields int

	// Base and FieldIdx describe ObjField objects: the field sub-object
	// FieldIdx of Base. Base is nil for non-field objects.
	Base     *Object
	FieldIdx int

	// fields caches materialized field sub-objects, indexed by field index.
	fields map[int]*Object
}

func (o *Object) String() string {
	if o == nil {
		return "<nil-obj>"
	}
	return o.Name
}

// Root returns the outermost base object: o itself for non-field objects,
// else the transitive Base.
func (o *Object) Root() *Object {
	for o.Base != nil {
		o = o.Base
	}
	return o
}

// Stmt is implemented by every IR statement.
type Stmt interface {
	// ID returns the dense program-wide statement ID (valid after Finalize).
	ID() StmtID
	// Parent returns the containing basic block.
	Parent() *Block
	String() string

	setID(StmtID)
	setParent(*Block)
}

// stmt carries the bookkeeping shared by all statement kinds.
type stmt struct {
	id    StmtID
	block *Block
	line  int
}

func (s *stmt) ID() StmtID         { return s.id }
func (s *stmt) Parent() *Block     { return s.block }
func (s *stmt) Line() int          { return s.line }
func (s *stmt) setID(id StmtID)    { s.id = id }
func (s *stmt) setParent(b *Block) { s.block = b }

// SetLine records the source line a statement was lowered from.
func SetLine(s Stmt, line int) {
	type liner interface{ setLine(int) }
	if l, ok := s.(liner); ok {
		l.setLine(line)
	}
}

func (s *stmt) setLine(line int) { s.line = line }

// LineOf returns the source line recorded for s (0 when unknown).
func LineOf(s Stmt) int {
	type liner interface{ Line() int }
	if l, ok := s.(liner); ok {
		return l.Line()
	}
	return 0
}

// AddrOf is p = &o (an allocation site when o is a heap object).
type AddrOf struct {
	stmt
	Dst *Var
	Obj *Object
}

func (s *AddrOf) String() string { return fmt.Sprintf("%s = &%s", s.Dst, s.Obj) }

// Copy is p = q.
type Copy struct {
	stmt
	Dst *Var
	Src *Var
}

func (s *Copy) String() string { return fmt.Sprintf("%s = %s", s.Dst, s.Src) }

// Load is p = *q.
type Load struct {
	stmt
	Dst  *Var
	Addr *Var
}

func (s *Load) String() string { return fmt.Sprintf("%s = *%s", s.Dst, s.Addr) }

// Store is *p = q.
type Store struct {
	stmt
	Addr *Var
	Src  *Var
}

func (s *Store) String() string { return fmt.Sprintf("*%s = %s", s.Addr, s.Src) }

// Phi is p = phi(q, r, ...). Incoming[i] is the value flowing in from
// Parent().Preds[i]; entries may be nil for undefined paths.
type Phi struct {
	stmt
	Dst      *Var
	Incoming []*Var
}

func (s *Phi) String() string {
	parts := make([]string, len(s.Incoming))
	for i, v := range s.Incoming {
		if v == nil {
			parts[i] = "undef"
		} else {
			parts[i] = v.String()
		}
	}
	return fmt.Sprintf("%s = phi(%s)", s.Dst, strings.Join(parts, ", "))
}

// Gep is p = &q->f: field address computation giving field sensitivity.
// A negative Field means an array element address, which aliases the base
// object itself (arrays are monolithic).
type Gep struct {
	stmt
	Dst   *Var
	Base  *Var
	Field int
}

func (s *Gep) String() string {
	if s.Field < 0 {
		return fmt.Sprintf("%s = &%s[*]", s.Dst, s.Base)
	}
	return fmt.Sprintf("%s = &%s->f%d", s.Dst, s.Base, s.Field)
}

// Call is an (optionally indirect) function call. Exactly one of Callee and
// CalleeVar is non-nil. Dst may be nil for calls whose result is unused.
type Call struct {
	stmt
	Dst       *Var
	Callee    *Function // direct callee, or nil
	CalleeVar *Var      // function-pointer operand, or nil
	Args      []*Var
}

func (s *Call) String() string {
	target := ""
	if s.Callee != nil {
		target = s.Callee.Name
	} else {
		target = "*" + s.CalleeVar.String()
	}
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	call := fmt.Sprintf("%s(%s)", target, strings.Join(args, ", "))
	if s.Dst != nil {
		return fmt.Sprintf("%s = %s", s.Dst, call)
	}
	return call
}

// Ret returns from the enclosing function. Val may be nil.
type Ret struct {
	stmt
	Val *Var
}

func (s *Ret) String() string {
	if s.Val == nil {
		return "ret"
	}
	return "ret " + s.Val.String()
}

// Fork models pthread_create: it spawns Routine (direct) or *RoutineVar
// (indirect) with argument Arg, defining Dst to the abstract thread handle
// object Handle. Exactly one of Routine and RoutineVar is non-nil; Arg and
// Dst may be nil.
type Fork struct {
	stmt
	Dst        *Var
	Routine    *Function
	RoutineVar *Var
	Arg        *Var
	// Handle is the abstract thread-handle object created for this fork
	// site; Dst points to it after the fork (pt(Dst) = {Handle}).
	Handle *Object
	// InLoop is set by the builder when the fork site is lexically inside a
	// loop in its function (used for multi-forked thread detection).
	InLoop bool
	// LoopID identifies the innermost enclosing lexical loop (0 = none);
	// used with Join.LoopID for the symmetric fork/join loop heuristic
	// (paper Figure 11).
	LoopID int
}

func (s *Fork) String() string {
	target := ""
	if s.Routine != nil {
		target = s.Routine.Name
	} else {
		target = "*" + s.RoutineVar.String()
	}
	arg := ""
	if s.Arg != nil {
		arg = ", " + s.Arg.String()
	}
	dst := ""
	if s.Dst != nil {
		dst = s.Dst.String() + " = "
	}
	return fmt.Sprintf("%sfork(%s%s)", dst, target, arg)
}

// Join models pthread_join: Handle holds abstract thread handles (ObjThread
// objects) identifying which threads may be joined here.
type Join struct {
	stmt
	Handle *Var
	// InLoop is set when the join site is lexically inside a loop (used by
	// the symmetric fork/join loop heuristic, paper Figure 11).
	InLoop bool
	// LoopID identifies the innermost enclosing lexical loop (0 = none).
	LoopID int
}

func (s *Join) String() string { return fmt.Sprintf("join(%s)", s.Handle) }

// Free models free(Ptr): deallocation of heap objects. It does not change
// points-to information (dangling pointers are out of scope) but is the
// sink statement of the memory-leak, use-after-free and double-free clients.
type Free struct {
	stmt
	Ptr *Var
	// ArgText is the source text of the freed expression (e.g. "p",
	// "s->buf"), recorded by the builder so diagnostics can name the free
	// site in user terms instead of SSA temporaries.
	ArgText string
}

func (s *Free) String() string { return fmt.Sprintf("free(%s)", s.Ptr) }

// Lock models pthread_mutex_lock(Ptr).
type Lock struct {
	stmt
	Ptr *Var
}

func (s *Lock) String() string { return fmt.Sprintf("lock(%s)", s.Ptr) }

// Unlock models pthread_mutex_unlock(Ptr).
type Unlock struct {
	stmt
	Ptr *Var
}

func (s *Unlock) String() string { return fmt.Sprintf("unlock(%s)", s.Ptr) }

// Block is a basic block.
type Block struct {
	Index int // position within Function.Blocks
	Func  *Function
	Stmts []Stmt
	Preds []*Block
	Succs []*Block
	// Comment is an optional human-readable label (e.g. "if.then").
	Comment string
	// Loops is the stack of enclosing lexical loop IDs, innermost last.
	// Loop bodies, headers and post blocks carry the loop's ID; the blocks
	// following a loop do not. Used to detect loop-exit edges.
	Loops []int
}

func (b *Block) String() string {
	return fmt.Sprintf("b%d", b.Index)
}

// Append adds a statement to the end of the block.
func (b *Block) Append(s Stmt) {
	s.setParent(b)
	b.Stmts = append(b.Stmts, s)
}

// Insert places s at position i within the block.
func (b *Block) Insert(i int, s Stmt) {
	s.setParent(b)
	b.Stmts = append(b.Stmts, nil)
	copy(b.Stmts[i+1:], b.Stmts[i:])
	b.Stmts[i] = s
}

// Prepend places ss, in order, ahead of the block's statements. The block
// gets a fresh array; the old one is cleared, so storage it may share with
// other blocks keeps none of its statements alive.
func (b *Block) Prepend(ss []Stmt) {
	stmts := make([]Stmt, 0, len(ss)+len(b.Stmts))
	for _, s := range ss {
		s.setParent(b)
		stmts = append(stmts, s)
	}
	stmts = append(stmts, b.Stmts...)
	clear(b.Stmts)
	b.Stmts = stmts
}

// AddEdge records a control-flow edge from b to succ.
func (b *Block) AddEdge(succ *Block) {
	b.Succs = append(b.Succs, succ)
	succ.Preds = append(succ.Preds, b)
}

// Function is a function definition.
type Function struct {
	Name   string
	Params []*Var
	// RetVar is the synthetic variable receiving the function's return value
	// (merged over all Ret statements); nil for void functions.
	RetVar *Var
	Blocks []*Block
	// Entry is Blocks[0]; Exit is a dedicated no-successor block that every
	// Ret transfers to conceptually (the builder guarantees all returns are
	// in blocks whose successor list is empty).
	Entry *Block

	// Obj is the ObjFunc object standing for this function.
	Obj *Object

	// IsThreadEntry is set for functions that appear as a fork routine; used
	// for reporting only.
	IsThreadEntry bool
}

func (f *Function) String() string { return f.Name }

// NewBlock creates and registers an empty basic block.
func (f *Function) NewBlock(comment string) *Block {
	b := &Block{Index: len(f.Blocks), Func: f, Comment: comment}
	f.Blocks = append(f.Blocks, b)
	if f.Entry == nil {
		f.Entry = b
	}
	return b
}

// Program is a whole program in partial SSA form.
type Program struct {
	Funcs      []*Function
	FuncByName map[string]*Function
	Main       *Function

	Vars    []*Var
	Objects []*Object
	// GlobalByName indexes the ObjGlobal objects by name; the first one
	// created under a name wins.
	GlobalByName map[string]*Object

	// Stmts indexes every statement by its StmtID after Finalize.
	Stmts []Stmt

	// varArena and objArena chunk-allocate Vars and Objects: builds create
	// tens of thousands of each, and one bump allocation per chunk beats
	// one heap object per entity. Handed-out pointers stay valid because a
	// chunk's backing array is never moved, only consumed from the front.
	varArena []Var
	objArena []Object
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{FuncByName: map[string]*Function{}, GlobalByName: map[string]*Object{}}
}

// NewFunc creates and registers a function along with its ObjFunc object.
func (p *Program) NewFunc(name string) *Function {
	f := &Function{Name: name}
	f.Obj = p.NewObject(ObjFunc, name, f)
	p.Funcs = append(p.Funcs, f)
	p.FuncByName[name] = f
	if name == "main" {
		p.Main = f
	}
	return f
}

// NewVar creates and registers a top-level variable owned by f (f may be nil
// for synthetic variables).
func (p *Program) NewVar(name string, f *Function) *Var {
	v := p.AllocVar(name, f)
	p.AddVar(v)
	return v
}

// AllocVar creates a top-level variable owned by f without registering it:
// until AddVar, v is not in Vars and its ID is the caller's to use. A
// builder that learns only later which variables anything references
// registers just those, keeping Vars dense.
func (p *Program) AllocVar(name string, f *Function) *Var {
	if len(p.varArena) == 0 {
		p.varArena = make([]Var, 1024)
	}
	v := &p.varArena[0]
	p.varArena = p.varArena[1:]
	v.Name = name
	v.Func = f
	return v
}

// AddVar registers v as the next entry of Vars, setting its ID.
func (p *Program) AddVar(v *Var) {
	v.ID = VarID(len(p.Vars))
	p.Vars = append(p.Vars, v)
}

// NewObject creates and registers an abstract object.
func (p *Program) NewObject(kind ObjKind, name string, f *Function) *Object {
	if len(p.objArena) == 0 {
		p.objArena = make([]Object, 512)
	}
	o := &p.objArena[0]
	p.objArena = p.objArena[1:]
	o.ID = ObjID(len(p.Objects))
	o.Kind = kind
	o.Name = name
	o.Func = f
	p.Objects = append(p.Objects, o)
	if kind == ObjGlobal && p.GlobalByName[name] == nil {
		p.GlobalByName[name] = o
	}
	return o
}

// FieldObj returns (materializing on first use) the sub-object for field idx
// of base. Arrays and scalar objects return base itself.
func (p *Program) FieldObj(base *Object, idx int) *Object {
	if base.IsArray || base.NumFields == 0 || idx < 0 {
		return base
	}
	if idx >= base.NumFields {
		// Out-of-range field access (e.g. through a badly typed pointer):
		// fall back to the base object, which is sound.
		return base
	}
	if base.fields == nil {
		base.fields = map[int]*Object{}
	}
	if fo := base.fields[idx]; fo != nil {
		return fo
	}
	fo := p.NewObject(ObjField, fmt.Sprintf("%s.f%d", base.Name, idx), base.Func)
	fo.Base = base
	fo.FieldIdx = idx
	base.fields[idx] = fo
	return fo
}

// FieldObjs returns the already-materialized field sub-objects of base in
// field-index order.
func (p *Program) FieldObjs(base *Object) []*Object {
	if base.fields == nil {
		return nil
	}
	idxs := make([]int, 0, len(base.fields))
	for i := range base.fields {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]*Object, len(idxs))
	for i, idx := range idxs {
		out[i] = base.fields[idx]
	}
	return out
}

// Finalize assigns dense statement IDs in a deterministic order (function
// declaration order, block order, statement order) and freezes the program.
// It must be called once after construction and before any analysis.
func (p *Program) Finalize() {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Stmts)
		}
	}
	// Re-finalizing picks up statements added since (e.g. by tests that
	// extend a program); IDs are reassigned densely.
	p.Stmts = slices.Grow(p.Stmts[:0], n)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				s.setID(StmtID(len(p.Stmts)))
				p.Stmts = append(p.Stmts, s)
			}
		}
	}
}

// NumStmts returns the number of statements (valid after Finalize).
func (p *Program) NumStmts() int { return len(p.Stmts) }

// StmtFunc returns the function containing s.
func StmtFunc(s Stmt) *Function {
	if b := s.Parent(); b != nil {
		return b.Func
	}
	return nil
}

// String renders the whole program, for debugging and golden tests.
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s(", f.Name)
		for i, pa := range f.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(pa.Name)
		}
		sb.WriteString(") {\n")
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "  %s:", b)
			if b.Comment != "" {
				fmt.Fprintf(&sb, " ; %s", b.Comment)
			}
			if len(b.Succs) > 0 {
				succs := make([]string, len(b.Succs))
				for i, s := range b.Succs {
					succs[i] = s.String()
				}
				fmt.Fprintf(&sb, " -> %s", strings.Join(succs, ", "))
			}
			sb.WriteByte('\n')
			for _, s := range b.Stmts {
				fmt.Fprintf(&sb, "    %s\n", s)
			}
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

// Statement type assertions, grouped for convenience.
var (
	_ Stmt = (*AddrOf)(nil)
	_ Stmt = (*Copy)(nil)
	_ Stmt = (*Load)(nil)
	_ Stmt = (*Store)(nil)
	_ Stmt = (*Phi)(nil)
	_ Stmt = (*Gep)(nil)
	_ Stmt = (*Call)(nil)
	_ Stmt = (*Ret)(nil)
	_ Stmt = (*Fork)(nil)
	_ Stmt = (*Join)(nil)
	_ Stmt = (*Free)(nil)
	_ Stmt = (*Lock)(nil)
	_ Stmt = (*Unlock)(nil)
)
