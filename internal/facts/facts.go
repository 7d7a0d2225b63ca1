// Package facts is the per-function fact layer behind the incremental
// analysis path: every function of a submitted program gets a content
// address (a hash of its positioned-stripped AST body plus the signatures
// of everything it calls or spawns), per-function fact records are kept in
// a bounded LRU store with hit/miss/invalidation counters, and a Snapshot
// — the ordered key table of one whole program — is what two submissions
// are diffed through to decide which facts can be adopted wholesale and
// which functions' interference facts must be recomputed.
//
// The keying scheme is deliberately position-free: whitespace, comments
// and line renumbering caused by edits elsewhere in the file do not change
// a function's key, so a one-function edit invalidates exactly that
// function (plus, via the caller/callee closure computed by the facade,
// the functions whose interference facts depend on it).
package facts

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/frontend/ast"
)

// Record is the per-function fact record the store holds.
type Record struct {
	// Key is the function's content address.
	Key string
	// Name is the function's name (diagnostic; keys already separate
	// same-named functions from different programs by content).
	Name string
	// Callees lists the functions this one calls, spawns or joins
	// syntactically, by name, sorted. The facade widens them to the
	// semantic (function-pointer) call graph when computing impact sets.
	Callees []string
}

// Snapshot is the ordered per-function key table of one program under one
// configuration, plus the program-level content address derived from it.
type Snapshot struct {
	// ProgKey is the program-level content address: the configuration's
	// canonical rendering, the globals/structs table, and every function
	// key in declaration order. Two sources with equal ProgKey analyze
	// identically (modulo diagnostics positions, which are re-derived).
	ProgKey string
	// Funcs holds one record per defined function, in declaration order.
	Funcs []*Record
	// ByName indexes Funcs.
	ByName map[string]*Record
}

// SnapshotFile computes the per-function key table of a parsed file.
// cfgCanonical is the configuration's canonical rendering (it salts every
// key: facts computed under one engine or ablation are never adopted by
// another).
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
	// snapshotting is pure overhead over the adopted facts.
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

	callees := calleeNames(fd.Body)
	for _, c := range callees {
		buf.WriteString("callee|")
		if sig, ok := sigs[c]; ok {
			buf.WriteString(sig)
			buf.WriteByte('\n')
		} else {
			buf.WriteString(c)
			buf.WriteString(":undeclared\n")
		}
	}
	return &Record{
		Key:     shortHash(buf.Bytes()),
		Name:    fd.Name,
		Callees: callees,
	}
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

// Counters is a point-in-time snapshot of a store's statistics.
type Counters struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
}

// Sub returns c - prev, for per-run deltas over a shared store.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Hits:          c.Hits - prev.Hits,
		Misses:        c.Misses - prev.Misses,
		Invalidations: c.Invalidations - prev.Invalidations,
		Evictions:     c.Evictions - prev.Evictions,
		Entries:       c.Entries,
	}
}

// HitRatio returns Hits / (Hits + Misses), 0 when no lookups happened.
func (c Counters) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// String renders the counters in the X-Fsamd-Facts header format.
func (c Counters) String() string {
	return fmt.Sprintf("hits=%d misses=%d invalidations=%d evictions=%d entries=%d",
		c.Hits, c.Misses, c.Invalidations, c.Evictions, c.Entries)
}

// Store is a bounded LRU of per-function fact records, safe for concurrent
// use. Lookups count hits and misses; Invalidate counts invalidations;
// inserts beyond capacity evict the least-recently-used record.
type Store struct {
	mu  sync.Mutex
	cap int
	m   map[string]*storeEntry
	// head is most-recently-used, tail least. Intrusive doubly-linked list
	// to avoid container/list's interface boxing.
	head, tail *storeEntry

	hits, misses, invalidations, evictions uint64
}

type storeEntry struct {
	rec        *Record
	prev, next *storeEntry
}

// DefaultCapacity bounds the default store: roomy enough for many
// programs' worth of functions, small enough to stay a cache.
const DefaultCapacity = 65536

// NewStore returns an empty store holding at most capacity records
// (DefaultCapacity when capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, m: map[string]*storeEntry{}}
}

// Lookup returns the record under key, counting a hit or a miss and
// marking the entry most-recently-used.
func (s *Store) Lookup(key string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.moveToFront(e)
	return e.rec, true
}

// Contains reports whether key is present without counting a lookup or
// touching recency.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok
}

// Install inserts or refreshes a record, evicting LRU entries over
// capacity.
func (s *Store) Install(rec *Record) {
	if rec == nil || rec.Key == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[rec.Key]; ok {
		e.rec = rec
		s.moveToFront(e)
		return
	}
	e := &storeEntry{rec: rec}
	s.m[rec.Key] = e
	s.pushFront(e)
	for len(s.m) > s.cap {
		lru := s.tail
		s.remove(lru)
		delete(s.m, lru.rec.Key)
		s.evictions++
	}
}

// Invalidate removes the record under key, counting an invalidation when
// it was present.
func (s *Store) Invalidate(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return false
	}
	s.remove(e)
	delete(s.m, key)
	s.invalidations++
	return true
}

// Counters returns a point-in-time snapshot of the store's statistics.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Hits:          s.hits,
		Misses:        s.misses,
		Invalidations: s.invalidations,
		Evictions:     s.evictions,
		Entries:       len(s.m),
	}
}

// Len returns the number of records held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *Store) pushFront(e *storeEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) remove(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) moveToFront(e *storeEntry) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}

// Keys returns the stored keys, most-recently-used first (tests and
// debugging).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for e := s.head; e != nil; e = e.next {
		out = append(out, e.rec.Key)
	}
	return out
}

// SortedNames renders a name list canonically (helper shared by the delta
// report and tests).
func SortedNames(names []string) string {
	cp := append([]string(nil), names...)
	sort.Strings(cp)
	return strings.Join(cp, ",")
}
