// Package parser implements a recursive-descent parser for MiniC, the C
// subset accepted by this repository (pointers, structs, monolithic arrays,
// functions and function pointers, malloc, and the Pthreads-like
// spawn/join/lock/unlock primitives).
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/lexer"
	"repro/internal/frontend/token"
	"repro/internal/frontend/types"
)

// Parser parses one MiniC translation unit. It pulls tokens from the
// lexer on demand through a three-token lookahead window (cur, peek and
// the token after it, which peekIsStructDef needs), so it never holds the
// whole token stream.
type Parser struct {
	lex     *lexer.Lexer
	win     [window]token.Token // a ring: cur is win[head]
	head    int
	errs    []error // syntax errors; lexical errors stay in lex
	structs map[string]*types.Struct
	depth   int
	bailed  bool

	nodes nodeSlabs
	// stmts stacks the statements of the blocks being parsed; a finished
	// block's run is copied out into stmtSlots.
	stmts     []ast.Stmt
	stmtSlots []ast.Stmt
}

// slab hands out T values from chunked arrays: a large file has hundreds
// of thousands of AST nodes, and one allocation per chunk instead of per
// node takes them off the allocator and the collector. Chunks grow from
// small, so tiny inputs stay cheap.
type slab[T any] struct {
	free []T
	size int
}

// put returns a pointer to a slab-allocated copy of v.
func put[T any](s *slab[T], v T) *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 16), 1024)
		s.free = make([]T, s.size)
	}
	n := &s.free[0]
	s.free = s.free[1:]
	*n = v
	return n
}

// nodeSlabs holds one slab per frequent AST node type.
type nodeSlabs struct {
	idents   slab[ast.Ident]
	ints     slab[ast.IntLit]
	binaries slab[ast.Binary]
	unaries  slab[ast.Unary]
	assigns  slab[ast.AssignStmt]
	exprs    slab[ast.ExprStmt]
	decls    slab[ast.DeclStmt]
	vars     slab[ast.VarDecl]
	fields   slab[ast.FieldSel]
	indexes  slab[ast.Index]
	calls    slab[ast.CallExpr]
	blocks   slab[ast.BlockStmt]
}

// maxDepth bounds statement/expression nesting. Recursive descent consumes
// Go stack proportionally to input nesting, so without a bound a hostile
// input of a few hundred KB of "(((((..." exhausts the stack — a panic no
// recover can contain. Exceeding it is a positioned syntax error.
const maxDepth = 256

// Parse parses src (name is used in diagnostics only) and returns the file
// plus any syntax errors. A non-nil file is returned even on error so tools
// can proceed best-effort.
//
// Every lexical error is reported ahead of every syntax error, as if the
// whole file were tokenized first.
func Parse(name, src string) (*ast.File, []error) {
	p := &Parser{lex: lexer.New(src), structs: map[string]*types.Struct{}}
	for i := range p.win {
		p.win[i] = p.lex.Next()
	}
	file := p.parseFile(name)
	return file, append(p.lex.Errors(), p.errs...)
}

// ParseChecked parses src and returns the file, or a positioned error
// ("name:line:col: message") describing the first problem and how many
// more follow. It is the error-returning replacement for the old
// panicking MustParse: malformed input is a value, not a crash.
func ParseChecked(name, src string) (*ast.File, error) {
	f, errs := Parse(name, src)
	switch len(errs) {
	case 0:
		return f, nil
	case 1:
		return nil, fmt.Errorf("%s:%w", name, errs[0])
	default:
		return nil, fmt.Errorf("%s:%w (and %d more)", name, errs[0], len(errs)-1)
	}
}

func (p *Parser) cur() token.Token  { return p.win[p.head] }
func (p *Parser) peek() token.Token { return p.win[ring(p.head+1)] }

// window is the lookahead depth.
const window = 3

// ring reduces a window position modulo the window size.
func ring(i int) int {
	if i >= window {
		i -= window
	}
	return i
}

// next consumes the current token, refilling its slot with the token two
// past the new current one. At EOF it stays put: the lexer keeps returning
// EOF once the input is exhausted.
func (p *Parser) next() token.Token {
	t := p.win[p.head]
	if t.Kind != token.EOF {
		p.win[p.head] = p.lex.Next()
		p.head = ring(p.head + 1)
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
}

// enter records one nesting level for the recursive-descent guard. It
// reports false at the cap, recording one positioned error and
// fast-forwarding to EOF so every recursion unwinds promptly.
func (p *Parser) enter() bool {
	p.depth++
	if p.depth <= maxDepth {
		return true
	}
	if !p.bailed {
		p.bailed = true
		p.errorf("nesting deeper than %d levels", maxDepth)
		// Drain the lexer so every lexical error is still reported.
		for !p.at(token.EOF) {
			p.next()
		}
	}
	return false
}

func (p *Parser) leave() { p.depth-- }

// sync skips tokens until after the next semicolon or before a closing
// brace, to recover from a syntax error.
func (p *Parser) sync() {
	for !p.at(token.EOF) {
		if p.accept(token.SEMI) {
			return
		}
		if p.at(token.RBRACE) {
			return
		}
		p.next()
	}
}

// ---- Types ----

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwVoid, token.KwChar, token.KwStruct,
		token.KwThreadT, token.KwLockT:
		return true
	}
	return false
}

// parseBaseType parses a type without pointer stars.
func (p *Parser) parseBaseType() types.Type {
	switch p.cur().Kind {
	case token.KwInt:
		p.next()
		return types.Int
	case token.KwVoid:
		p.next()
		return types.Void
	case token.KwChar:
		p.next()
		return types.Char
	case token.KwThreadT:
		p.next()
		return types.Thread
	case token.KwLockT:
		p.next()
		return types.Lock
	case token.KwStruct:
		p.next()
		name := p.expect(token.IDENT).Lit
		return p.structType(name)
	}
	p.errorf("expected type, found %s", p.cur())
	p.next()
	return types.Int
}

// structType returns the (possibly forward-declared) struct named name.
func (p *Parser) structType(name string) *types.Struct {
	if s, ok := p.structs[name]; ok {
		return s
	}
	s := &types.Struct{Name: name}
	p.structs[name] = s
	return s
}

// parseStars wraps base in one pointer level per '*'.
func (p *Parser) parseStars(base types.Type) types.Type {
	for p.accept(token.STAR) {
		base = types.PointerTo(base)
	}
	return base
}

// parseArraySuffix wraps t in array types for each trailing [N].
func (p *Parser) parseArraySuffix(t types.Type) types.Type {
	for p.accept(token.LBRACKET) {
		n := 0
		if p.at(token.INT) {
			n, _ = strconv.Atoi(p.next().Lit)
		} else if !p.at(token.RBRACKET) {
			// Permit symbolic sizes; the analyses are size-insensitive.
			p.next()
		}
		p.expect(token.RBRACKET)
		t = &types.Array{Elem: t, Len: n}
	}
	return t
}

// ---- Declarations ----

func (p *Parser) parseFile(name string) *ast.File {
	f := &ast.File{Name: name}
	for !p.at(token.EOF) {
		switch {
		case p.at(token.KwStruct) && p.peek().Kind == token.IDENT && p.peekIsStructDef():
			f.Structs = append(f.Structs, p.parseStructDecl())
		case p.isTypeStart():
			p.parseTopLevel(f)
		default:
			p.errorf("unexpected token %s at top level", p.cur())
			p.next()
		}
	}
	return f
}

// peekIsStructDef distinguishes `struct S { ... };` from `struct S x;`.
func (p *Parser) peekIsStructDef() bool { return p.win[ring(p.head+2)].Kind == token.LBRACE }

func (p *Parser) parseStructDecl() *ast.StructDecl {
	pos := p.cur().Pos
	p.expect(token.KwStruct)
	name := p.expect(token.IDENT).Lit
	st := p.structType(name)
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		ft := p.parseStars(p.parseBaseType())
		fname := p.expect(token.IDENT).Lit
		ft = p.parseArraySuffix(ft)
		st.Fields = append(st.Fields, types.Field{Name: fname, Type: ft})
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return &ast.StructDecl{P: pos, Name: name, Type: st}
}

// parseTopLevel parses a global variable or a function.
func (p *Parser) parseTopLevel(f *ast.File) {
	pos := p.cur().Pos
	base := p.parseBaseType()
	t := p.parseStars(base)
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		f.Funcs = append(f.Funcs, p.parseFuncRest(pos, name, t))
		return
	}
	// Global variable(s).
	for {
		vt := p.parseArraySuffix(t)
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.parseExpr()
		}
		f.Globals = append(f.Globals, &ast.VarDecl{P: pos, Name: name, Type: vt, Init: init})
		if !p.accept(token.COMMA) {
			break
		}
		t2 := p.parseStars(base)
		t = t2
		name = p.expect(token.IDENT).Lit
	}
	p.expect(token.SEMI)
}

func (p *Parser) parseFuncRest(pos token.Pos, name string, ret types.Type) *ast.FuncDecl {
	d := &ast.FuncDecl{P: pos, Name: name, Ret: ret}
	p.expect(token.LPAREN)
	if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
		p.next()
	}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		ppos := p.cur().Pos
		pt := p.parseStars(p.parseBaseType())
		pname := ""
		if p.at(token.IDENT) {
			pname = p.next().Lit
		}
		pt = p.parseArraySuffix(pt)
		d.Params = append(d.Params, &ast.Param{P: ppos, Name: pname, Type: pt})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	if p.accept(token.SEMI) {
		return d // prototype
	}
	d.Body = p.parseBlock()
	return d
}

// ---- Statements ----

func (p *Parser) parseBlock() *ast.BlockStmt {
	pos := p.cur().Pos
	p.expect(token.LBRACE)
	b := put(&p.nodes.blocks, ast.BlockStmt{P: pos})
	mark := len(p.stmts)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		s := p.parseStmt()
		p.stmts = append(p.stmts, s)
	}
	if n := len(p.stmts) - mark; n > 0 {
		// Copy the run into the shared slot chunk, capacity capped so an
		// append to one block's list cannot overwrite the next.
		if cap(p.stmtSlots)-len(p.stmtSlots) < n {
			p.stmtSlots = make([]ast.Stmt, 0, max(4096, n))
		}
		start := len(p.stmtSlots)
		p.stmtSlots = append(p.stmtSlots, p.stmts[mark:]...)
		b.Stmts = p.stmtSlots[start:len(p.stmtSlots):len(p.stmtSlots)]
		clear(p.stmts[mark:])
		p.stmts = p.stmts[:mark]
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.cur().Pos
	if !p.enter() {
		return &ast.BlockStmt{P: pos}
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.KwIf:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		thenS := p.parseStmt()
		var elseS ast.Stmt
		if p.accept(token.KwElse) {
			elseS = p.parseStmt()
		}
		return &ast.IfStmt{P: pos, Cond: cond, Then: thenS, Else: elseS}
	case token.KwWhile:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.WhileStmt{P: pos, Cond: cond, Body: p.parseStmt()}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		p.next()
		var x ast.Expr
		if !p.at(token.SEMI) {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.ReturnStmt{P: pos, X: x}
	case token.KwBreak:
		p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{P: pos}
	case token.KwContinue:
		p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{P: pos}
	case token.KwJoin:
		p.next()
		p.expect(token.LPAREN)
		h := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.JoinStmt{P: pos, Handle: h}
	case token.KwFree:
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.FreeStmt{P: pos, X: x}
	case token.KwLock:
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.LockStmt{P: pos, Ptr: x}
	case token.KwUnlock:
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.UnlockStmt{P: pos, Ptr: x}
	case token.SEMI:
		p.next()
		return &ast.BlockStmt{P: pos} // empty statement
	}
	if p.isTypeStart() {
		d := p.parseLocalDecl()
		return d
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

// parseLocalDecl parses `type declarator [= init];`.
func (p *Parser) parseLocalDecl() ast.Stmt {
	pos := p.cur().Pos
	t := p.parseStars(p.parseBaseType())
	name := p.expect(token.IDENT).Lit
	t = p.parseArraySuffix(t)
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return put(&p.nodes.decls, ast.DeclStmt{Decl: put(&p.nodes.vars, ast.VarDecl{P: pos, Name: name, Type: t, Init: init})})
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement
// (without the trailing semicolon).
func (p *Parser) parseSimpleStmt() ast.Stmt {
	pos := p.cur().Pos
	x := p.parseExpr()
	switch {
	case p.accept(token.ASSIGN):
		rhs := p.parseExpr()
		return put(&p.nodes.assigns, ast.AssignStmt{P: pos, LHS: x, RHS: rhs})
	case p.at(token.INC) || p.at(token.DEC):
		op := token.PLUS
		if p.cur().Kind == token.DEC {
			op = token.MINUS
		}
		p.next()
		one := &ast.IntLit{P: pos, Value: 1}
		return &ast.AssignStmt{P: pos, LHS: x, RHS: &ast.Binary{P: pos, Op: op, X: x, Y: one}}
	default:
		return put(&p.nodes.exprs, ast.ExprStmt{P: pos, X: x})
	}
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.cur().Pos
	p.expect(token.KwFor)
	p.expect(token.LPAREN)
	var initS ast.Stmt
	if !p.at(token.SEMI) {
		if p.isTypeStart() {
			initS = p.parseLocalDecl() // consumes the semicolon
		} else {
			initS = p.parseSimpleStmt()
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	var cond ast.Expr
	if !p.at(token.SEMI) {
		cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	var post ast.Stmt
	if !p.at(token.RPAREN) {
		post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.ForStmt{P: pos, Init: initS, Cond: cond, Post: post, Body: body}
}

// ---- Expressions ----

// Binary operator precedence (higher binds tighter).
func precOf(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.EQ, token.NEQ:
		return 3
	case token.LT, token.GT, token.LE, token.GE:
		return 4
	case token.PLUS, token.MINUS:
		return 5
	case token.STAR, token.SLASH, token.PERCENT:
		return 6
	}
	return 0
}

func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := precOf(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.next()
		y := p.parseBinary(prec + 1)
		x = put(&p.nodes.binaries, ast.Binary{P: op.Pos, Op: op.Kind, X: x, Y: y})
	}
}

func (p *Parser) parseUnary() ast.Expr {
	pos := p.cur().Pos
	if !p.enter() {
		return &ast.IntLit{P: pos}
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.STAR:
		p.next()
		x := p.parseUnary()
		return put(&p.nodes.unaries, ast.Unary{P: pos, Op: token.STAR, X: x})
	case token.AMP:
		p.next()
		x := p.parseUnary()
		return put(&p.nodes.unaries, ast.Unary{P: pos, Op: token.AMP, X: x})
	case token.MINUS:
		p.next()
		x := p.parseUnary()
		return put(&p.nodes.unaries, ast.Unary{P: pos, Op: token.MINUS, X: x})
	case token.NOT:
		p.next()
		x := p.parseUnary()
		return put(&p.nodes.unaries, ast.Unary{P: pos, Op: token.NOT, X: x})
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		pos := p.cur().Pos
		switch {
		case p.accept(token.ARROW):
			name := p.expect(token.IDENT).Lit
			x = put(&p.nodes.fields, ast.FieldSel{P: pos, X: x, Name: name, Arrow: true})
		case p.accept(token.DOT):
			name := p.expect(token.IDENT).Lit
			x = put(&p.nodes.fields, ast.FieldSel{P: pos, X: x, Name: name, Arrow: false})
		case p.accept(token.LBRACKET):
			i := p.parseExpr()
			p.expect(token.RBRACKET)
			x = put(&p.nodes.indexes, ast.Index{P: pos, X: x, I: i})
		case p.at(token.LPAREN):
			p.next()
			call := put(&p.nodes.calls, ast.CallExpr{P: pos, Fun: x})
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				call.Args = append(call.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			x = call
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.IDENT:
		return put(&p.nodes.idents, ast.Ident{P: pos, Name: p.next().Lit})
	case token.INT:
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: bad integer %q", t.Pos, t.Lit))
		}
		return put(&p.nodes.ints, ast.IntLit{P: pos, Value: v})
	case token.STRING:
		return &ast.StringLit{P: pos, Value: p.next().Lit}
	case token.KwNull:
		p.next()
		return &ast.NullLit{P: pos}
	case token.KwMalloc:
		p.next()
		p.expect(token.LPAREN)
		// Accept and ignore an optional size expression, C-style.
		if !p.at(token.RPAREN) {
			p.parseExpr()
		}
		p.expect(token.RPAREN)
		return &ast.MallocExpr{P: pos}
	case token.KwSpawn:
		p.next()
		p.expect(token.LPAREN)
		routine := p.parseExpr()
		var arg ast.Expr
		if p.accept(token.COMMA) {
			arg = p.parseExpr()
		}
		p.expect(token.RPAREN)
		return &ast.SpawnExpr{P: pos, Routine: routine, Arg: arg}
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf("expected expression, found %s", p.cur())
	p.next()
	return &ast.IntLit{P: pos}
}
