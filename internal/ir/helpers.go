package ir

// Def returns the top-level variable defined by s, or nil.
func Def(s Stmt) *Var {
	switch s := s.(type) {
	case *AddrOf:
		return s.Dst
	case *Copy:
		return s.Dst
	case *Load:
		return s.Dst
	case *Phi:
		return s.Dst
	case *Gep:
		return s.Dst
	case *Call:
		return s.Dst
	case *Fork:
		return s.Dst
	}
	return nil
}

// Uses returns the top-level variables read by s (excluding its def).
func Uses(s Stmt) []*Var { return AppendUses(nil, s) }

// AppendUses appends the top-level variables read by s (excluding its def)
// to dst and returns the extended slice, so a caller walking many
// statements can reuse one buffer.
func AppendUses(dst []*Var, s Stmt) []*Var {
	switch s := s.(type) {
	case *Copy:
		return append(dst, s.Src)
	case *Load:
		return append(dst, s.Addr)
	case *Store:
		return append(dst, s.Addr, s.Src)
	case *Phi:
		for _, v := range s.Incoming {
			if v != nil {
				dst = append(dst, v)
			}
		}
	case *Gep:
		return append(dst, s.Base)
	case *Call:
		if s.CalleeVar != nil {
			dst = append(dst, s.CalleeVar)
		}
		return append(dst, s.Args...)
	case *Ret:
		if s.Val != nil {
			return append(dst, s.Val)
		}
	case *Fork:
		if s.RoutineVar != nil {
			dst = append(dst, s.RoutineVar)
		}
		if s.Arg != nil {
			dst = append(dst, s.Arg)
		}
	case *Join:
		return append(dst, s.Handle)
	case *Free:
		return append(dst, s.Ptr)
	case *Lock:
		return append(dst, s.Ptr)
	case *Unlock:
		return append(dst, s.Ptr)
	}
	return dst
}

// RewriteUses replaces every used (non-def) variable operand v of s with
// f(v). f must return its argument to leave an operand unchanged.
func RewriteUses(s Stmt, f func(*Var) *Var) {
	switch s := s.(type) {
	case *Copy:
		s.Src = f(s.Src)
	case *Load:
		s.Addr = f(s.Addr)
	case *Store:
		s.Addr = f(s.Addr)
		s.Src = f(s.Src)
	case *Phi:
		for i, v := range s.Incoming {
			if v != nil {
				s.Incoming[i] = f(v)
			}
		}
	case *Gep:
		s.Base = f(s.Base)
	case *Call:
		if s.CalleeVar != nil {
			s.CalleeVar = f(s.CalleeVar)
		}
		for i, a := range s.Args {
			s.Args[i] = f(a)
		}
	case *Ret:
		if s.Val != nil {
			s.Val = f(s.Val)
		}
	case *Fork:
		if s.RoutineVar != nil {
			s.RoutineVar = f(s.RoutineVar)
		}
		if s.Arg != nil {
			s.Arg = f(s.Arg)
		}
	case *Join:
		s.Handle = f(s.Handle)
	case *Free:
		s.Ptr = f(s.Ptr)
	case *Lock:
		s.Ptr = f(s.Ptr)
	case *Unlock:
		s.Ptr = f(s.Ptr)
	}
}

// IsMemAccess reports whether s directly reads or writes address-taken
// memory (Load or Store).
func IsMemAccess(s Stmt) bool {
	switch s.(type) {
	case *Load, *Store:
		return true
	}
	return false
}

// RemoveUnreachable deletes blocks not reachable from f.Entry, fixing up
// predecessor lists and block indices. Phi incoming entries corresponding to
// removed predecessors are dropped.
func RemoveUnreachable(f *Function) {
	if f.Entry == nil {
		return
	}
	// reach is indexed by Block.Index, which NewBlock keeps dense.
	reach := make([]bool, len(f.Blocks))
	stack := []*Block{f.Entry}
	reach[f.Entry.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s.Index] {
				reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.Index] {
			kept = append(kept, b)
		} else {
			// A dropped block's statement array may share storage that
			// outlives it; keep none of its statements alive there.
			clear(b.Stmts)
		}
	}
	clear(f.Blocks[len(kept):])
	for _, b := range kept {
		var preds []*Block
		var keepIdx []int
		for i, p := range b.Preds {
			if reach[p.Index] {
				preds = append(preds, p)
				keepIdx = append(keepIdx, i)
			}
		}
		if len(preds) != len(b.Preds) {
			for _, s := range b.Stmts {
				if phi, ok := s.(*Phi); ok && len(phi.Incoming) == len(b.Preds) {
					inc := make([]*Var, 0, len(keepIdx))
					for _, i := range keepIdx {
						inc = append(inc, phi.Incoming[i])
					}
					phi.Incoming = inc
				}
			}
			b.Preds = preds
		}
	}
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.Index = i
	}
}
