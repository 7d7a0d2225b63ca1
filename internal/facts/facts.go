// Package facts content-addresses the functions of a submitted program for
// the incremental analysis path. Every function gets a key: a hash of its
// position-stripped AST body plus the signatures of everything it calls or
// spawns. A Snapshot, the ordered key table of one whole program plus a
// program-level key, is what two submissions are diffed through. The diff
// decides whether a patch is a noop (equal program keys) and names the
// functions it changed, removed or left alone; that is all an incremental
// run reports about reuse.
//
// The keying scheme is deliberately position-free: whitespace, comments
// and line renumbering caused by edits elsewhere in the file do not change
// a function's key, so a one-function edit changes exactly that function's
// key (plus its callers', when its signature changes).
package facts

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/frontend/ast"
)

// Record is one function's entry in a Snapshot.
type Record struct {
	// Key is the function's content address.
	Key string
	// Name is the function's name (diagnostic; keys already separate
	// same-named functions from different programs by content).
	Name string
}

// Snapshot is the ordered per-function key table of one program under one
// configuration, plus the program-level content address derived from it.
type Snapshot struct {
	// ProgKey is the program-level content address: the configuration's
	// canonical rendering, the globals/structs table, and every function
	// key in declaration order. Two sources with equal ProgKey analyze
	// identically modulo positions (the noop tier keeps the base's lines).
	ProgKey string
	// Funcs holds one record per defined function, in declaration order.
	Funcs []*Record
	// ByName indexes Funcs.
	ByName map[string]*Record
}

// SnapshotFile computes the per-function key table of a parsed file.
// cfgCanonical is the configuration's canonical rendering (it salts every
// key: a program analyzed under one engine or ablation never serves as
// the noop base of another).
func SnapshotFile(cfgCanonical string, f *ast.File) *Snapshot {
	snap := &Snapshot{ByName: map[string]*Record{}}

	// Signatures of every defined function, for callee salting.
	sigs := map[string]string{}
	for _, fd := range f.Funcs {
		if fd.Body == nil {
			continue
		}
		sigs[fd.Name] = fd.Name + ":" + fd.Signature().String()
	}

	// Rendering goes through plain buffers and each key is hashed with one
	// Write: feeding sha256 (and fmt) hundreds of 2-10 byte chunks per
	// function was measurable on the warm re-analysis path, where
	// snapshotting is pure overhead over the adopted analysis.
	var prog, fbuf bytes.Buffer
	prog.WriteString("cfg|")
	prog.WriteString(cfgCanonical)
	prog.WriteByte('\n')
	for _, sd := range f.Structs {
		prog.WriteString("struct|")
		prog.WriteString(sd.Name)
		if sd.Type != nil {
			for _, fl := range sd.Type.Fields {
				prog.WriteByte('|')
				prog.WriteString(fl.Name)
				prog.WriteByte(':')
				prog.WriteString(typeString(fl.Type))
			}
		}
		prog.WriteByte('\n')
	}
	for _, g := range f.Globals {
		prog.WriteString("global|")
		prog.WriteString(g.Name)
		prog.WriteByte('|')
		prog.WriteString(typeString(g.Type))
		prog.WriteByte('|')
		if g.Init != nil {
			writeExpr(&prog, g.Init)
		}
		prog.WriteByte('\n')
	}

	for _, fd := range f.Funcs {
		if fd.Body == nil {
			continue
		}
		rec := funcRecord(cfgCanonical, fd, sigs, &fbuf)
		snap.Funcs = append(snap.Funcs, rec)
		snap.ByName[rec.Name] = rec
		prog.WriteString("func|")
		prog.WriteString(rec.Name)
		prog.WriteByte('|')
		prog.WriteString(rec.Key)
		prog.WriteByte('\n')
	}
	snap.ProgKey = shortHash(prog.Bytes())
	return snap
}

// shortHash is the content-address form used for every key: the first 16
// hex digits of the sha256 of one rendered buffer.
func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// funcRecord computes one function's content address: its own rendered
// body (no positions) plus the signatures of its syntactic callees, so a
// signature change in a callee invalidates the caller too.
func funcRecord(cfgCanonical string, fd *ast.FuncDecl, sigs map[string]string, buf *bytes.Buffer) *Record {
	buf.Reset()
	buf.WriteString("cfg|")
	buf.WriteString(cfgCanonical)
	buf.WriteString("\nfunc|")
	buf.WriteString(fd.Name)
	buf.WriteByte('|')
	for _, p := range fd.Params {
		buf.WriteString(p.Name)
		buf.WriteByte(':')
		buf.WriteString(typeString(p.Type))
		buf.WriteByte(',')
	}
	buf.WriteByte('|')
	buf.WriteString(typeString(fd.Ret))
	buf.WriteByte('\n')
	writeStmt(buf, fd.Body)

	for _, c := range calleeNames(fd.Body) {
		buf.WriteString("callee|")
		if sig, ok := sigs[c]; ok {
			buf.WriteString(sig)
			buf.WriteByte('\n')
		} else {
			buf.WriteString(c)
			buf.WriteString(":undeclared\n")
		}
	}
	return &Record{Key: shortHash(buf.Bytes()), Name: fd.Name}
}

// calleeNames collects the sorted, deduplicated names called or spawned
// from a statement tree.
func calleeNames(s ast.Stmt) []string {
	set := map[string]bool{}
	var visitExpr func(e ast.Expr)
	visitExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok {
				set[id.Name] = true
			} else {
				visitExpr(e.Fun)
			}
			for _, a := range e.Args {
				visitExpr(a)
			}
		case *ast.SpawnExpr:
			if id, ok := e.Routine.(*ast.Ident); ok {
				set[id.Name] = true
			} else {
				visitExpr(e.Routine)
			}
			if e.Arg != nil {
				visitExpr(e.Arg)
			}
		case *ast.Unary:
			visitExpr(e.X)
		case *ast.Binary:
			visitExpr(e.X)
			visitExpr(e.Y)
		case *ast.Index:
			visitExpr(e.X)
			visitExpr(e.I)
		case *ast.FieldSel:
			visitExpr(e.X)
		}
	}
	var visitStmt func(s ast.Stmt)
	visitStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.DeclStmt:
			if s.Decl.Init != nil {
				visitExpr(s.Decl.Init)
			}
		case *ast.AssignStmt:
			visitExpr(s.LHS)
			visitExpr(s.RHS)
		case *ast.ExprStmt:
			visitExpr(s.X)
		case *ast.IfStmt:
			visitExpr(s.Cond)
			visitStmt(s.Then)
			visitStmt(s.Else)
		case *ast.WhileStmt:
			visitExpr(s.Cond)
			visitStmt(s.Body)
		case *ast.ForStmt:
			visitStmt(s.Init)
			if s.Cond != nil {
				visitExpr(s.Cond)
			}
			visitStmt(s.Post)
			visitStmt(s.Body)
		case *ast.ReturnStmt:
			if s.X != nil {
				visitExpr(s.X)
			}
		case *ast.BlockStmt:
			for _, st := range s.Stmts {
				visitStmt(st)
			}
		case *ast.FreeStmt:
			visitExpr(s.X)
		case *ast.JoinStmt:
			visitExpr(s.Handle)
		case *ast.LockStmt:
			visitExpr(s.Ptr)
		case *ast.UnlockStmt:
			visitExpr(s.Ptr)
		}
	}
	visitStmt(s)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// writeStmt renders a statement tree into b with no position information.
func writeStmt(b *bytes.Buffer, s ast.Stmt) {
	switch s := s.(type) {
	case nil:
		b.WriteString("nil;")
	case *ast.DeclStmt:
		b.WriteString("decl ")
		b.WriteString(typeString(s.Decl.Type))
		b.WriteByte(' ')
		b.WriteString(s.Decl.Name)
		if s.Decl.Init != nil {
			b.WriteByte('=')
			writeExpr(b, s.Decl.Init)
		}
		b.WriteByte(';')
	case *ast.AssignStmt:
		writeExpr(b, s.LHS)
		b.WriteByte('=')
		writeExpr(b, s.RHS)
		b.WriteByte(';')
	case *ast.ExprStmt:
		writeExpr(b, s.X)
		b.WriteByte(';')
	case *ast.IfStmt:
		b.WriteString("if(")
		writeExpr(b, s.Cond)
		b.WriteByte(')')
		writeStmt(b, s.Then)
		if s.Else != nil {
			b.WriteString("else")
			writeStmt(b, s.Else)
		}
	case *ast.WhileStmt:
		b.WriteString("while(")
		writeExpr(b, s.Cond)
		b.WriteByte(')')
		writeStmt(b, s.Body)
	case *ast.ForStmt:
		b.WriteString("for(")
		writeStmt(b, s.Init)
		if s.Cond != nil {
			writeExpr(b, s.Cond)
		}
		b.WriteByte(';')
		writeStmt(b, s.Post)
		b.WriteByte(')')
		writeStmt(b, s.Body)
	case *ast.ReturnStmt:
		b.WriteString("return")
		if s.X != nil {
			b.WriteByte(' ')
			writeExpr(b, s.X)
		}
		b.WriteByte(';')
	case *ast.BreakStmt:
		b.WriteString("break;")
	case *ast.ContinueStmt:
		b.WriteString("continue;")
	case *ast.BlockStmt:
		b.WriteByte('{')
		for _, st := range s.Stmts {
			writeStmt(b, st)
		}
		b.WriteByte('}')
	case *ast.FreeStmt:
		b.WriteString("free(")
		writeExpr(b, s.X)
		b.WriteString(");")
	case *ast.JoinStmt:
		b.WriteString("join(")
		writeExpr(b, s.Handle)
		b.WriteString(");")
	case *ast.LockStmt:
		b.WriteString("lock(")
		writeExpr(b, s.Ptr)
		b.WriteString(");")
	case *ast.UnlockStmt:
		b.WriteString("unlock(")
		writeExpr(b, s.Ptr)
		b.WriteString(");")
	default:
		fmt.Fprintf(b, "stmt<%T>;", s)
	}
}

// writeExpr renders an expression tree into b with no position information.
func writeExpr(b *bytes.Buffer, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString("id:")
		b.WriteString(e.Name)
	case *ast.IntLit:
		b.WriteString("int:")
		writeInt(b, int64(e.Value))
	case *ast.StringLit:
		b.WriteString("str:")
		b.WriteString(strconv.Quote(e.Value))
	case *ast.NullLit:
		b.WriteString("null")
	case *ast.Unary:
		b.WriteByte('u')
		writeInt(b, int64(e.Op))
		b.WriteByte('(')
		writeExpr(b, e.X)
		b.WriteByte(')')
	case *ast.Binary:
		b.WriteByte('b')
		writeInt(b, int64(e.Op))
		b.WriteByte('(')
		writeExpr(b, e.X)
		b.WriteByte(',')
		writeExpr(b, e.Y)
		b.WriteByte(')')
	case *ast.Index:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.I)
		b.WriteByte(']')
	case *ast.FieldSel:
		writeExpr(b, e.X)
		if e.Arrow {
			b.WriteString("->")
		} else {
			b.WriteByte('.')
		}
		b.WriteString(e.Name)
	case *ast.CallExpr:
		writeExpr(b, e.Fun)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	case *ast.MallocExpr:
		b.WriteString("malloc()")
	case *ast.SpawnExpr:
		b.WriteString("spawn(")
		writeExpr(b, e.Routine)
		if e.Arg != nil {
			b.WriteByte(',')
			writeExpr(b, e.Arg)
		}
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "expr<%T>", e)
	}
}

// writeInt appends v in decimal without going through fmt.
func writeInt(b *bytes.Buffer, v int64) {
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], v, 10))
}

func typeString(t fmt.Stringer) string {
	if t == nil {
		return "void"
	}
	return t.String()
}

// Diff classifies the functions of next against base.
type Diff struct {
	// Changed lists functions of next whose key differs from base's record
	// of the same name, or which base did not have at all.
	Changed []string
	// Removed lists functions base had and next does not.
	Removed []string
	// Same lists functions whose key is unchanged.
	Same []string
}

// Diff compares two snapshots function by function.
func (base *Snapshot) Diff(next *Snapshot) Diff {
	var d Diff
	for _, rec := range next.Funcs {
		if b, ok := base.ByName[rec.Name]; ok && b.Key == rec.Key {
			d.Same = append(d.Same, rec.Name)
		} else {
			d.Changed = append(d.Changed, rec.Name)
		}
	}
	for _, rec := range base.Funcs {
		if _, ok := next.ByName[rec.Name]; !ok {
			d.Removed = append(d.Removed, rec.Name)
		}
	}
	return d
}
