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
func Uses(s Stmt) []*Var {
	switch s := s.(type) {
	case *Copy:
		return []*Var{s.Src}
	case *Load:
		return []*Var{s.Addr}
	case *Store:
		return []*Var{s.Addr, s.Src}
	case *Phi:
		var out []*Var
		for _, v := range s.Incoming {
			if v != nil {
				out = append(out, v)
			}
		}
		return out
	case *Gep:
		return []*Var{s.Base}
	case *Call:
		var out []*Var
		if s.CalleeVar != nil {
			out = append(out, s.CalleeVar)
		}
		out = append(out, s.Args...)
		return out
	case *Ret:
		if s.Val != nil {
			return []*Var{s.Val}
		}
	case *Fork:
		var out []*Var
		if s.RoutineVar != nil {
			out = append(out, s.RoutineVar)
		}
		if s.Arg != nil {
			out = append(out, s.Arg)
		}
		return out
	case *Join:
		return []*Var{s.Handle}
	case *Free:
		return []*Var{s.Ptr}
	case *Lock:
		return []*Var{s.Ptr}
	case *Unlock:
		return []*Var{s.Ptr}
	}
	return nil
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
