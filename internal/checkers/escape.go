package checkers

// The escape-aware checkers consume the thread-escape sharedness
// classification (internal/escape) alongside the lockset and interleaving
// analyses, covering the lockset-hybrid bug classes the pairwise race
// detector is not shaped for:
//
//   - localonlylock: a mutex whose spans only ever guard ThreadLocal data
//     — the synchronization is unnecessary (a perf smell, not a bug).
//   - unsyncshared: Eraser-style inconsistent locking — a Shared object
//     written under an empty candidate lockset (no single lock protects
//     all of its accesses), refined by statement-level MHP so HB-ordered
//     fork handoffs do not fire.
//   - escapeleak: the address of a ThreadLocal stack object stored into a
//     Shared sink — a latent escape no thread dereferences yet, invisible
//     to accessor-based race detection.

import (
	"fmt"
	"sort"

	"repro/internal/diag"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
)

var localOnlyLockChecker = &Checker{
	ID:       "localonlylock",
	Name:     "LocalOnlyLock",
	Doc:      "mutex only guards thread-local data; the synchronization is unnecessary",
	Severity: diag.SevNote,
	available: func(f *Facts) string {
		if f.Model == nil {
			return "requires the thread model (" + f.PrecisionNote + ")"
		}
		if f.Locks == nil {
			return "requires the lock analysis (" + f.PrecisionNote + ")"
		}
		if f.Escape == nil {
			return "requires the escape analysis (" + f.PrecisionNote + ")"
		}
		return ""
	},
	run: localOnlyLocks,
}

// localOnlyLocks groups spans by lock object and reports every lock whose
// spans guard at least one data object, all of them ThreadLocal.
func localOnlyLocks(f *Facts) []diag.Diagnostic {
	type lockState struct {
		firstSpan *locks.Span // minimum span ID, the report position
		guarded   map[ir.ObjID]bool
		allLocal  bool
	}
	states := map[ir.ObjID]*lockState{}
	for _, sp := range f.Locks.Spans {
		st := states[sp.LockObj.ID]
		if st == nil {
			st = &lockState{firstSpan: sp, guarded: map[ir.ObjID]bool{}, allLocal: true}
			states[sp.LockObj.ID] = st
		} else if sp.ID < st.firstSpan.ID {
			st.firstSpan = sp
		}
		for _, s := range sp.AccessStmts() {
			var addr *ir.Var
			switch a := s.(type) {
			case *ir.Load:
				addr = a.Addr
			case *ir.Store:
				addr = a.Addr
			default:
				continue
			}
			f.pointsTo(addr).ForEach(func(id uint32) {
				obj := f.Prog.Objects[id]
				if obj.ID == sp.LockObj.ID {
					return
				}
				st.guarded[obj.ID] = true
				if f.Escape.ClassOf(obj.ID) != escape.ThreadLocal {
					st.allLocal = false
				}
			})
		}
	}

	ids := make([]ir.ObjID, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []diag.Diagnostic
	for _, id := range ids {
		st := states[id]
		if len(st.guarded) == 0 || !st.allLocal {
			continue
		}
		lockObj := st.firstSpan.LockObj
		out = append(out, diag.Diagnostic{
			Line: ir.LineOf(st.firstSpan.Lock),
			Message: fmt.Sprintf(
				"lock %s only guards thread-local data (%d object(s)); the synchronization is unnecessary",
				lockObj, len(st.guarded)),
			Object:  lockObj.Name,
			Threads: []string{st.firstSpan.Thread.String()},
		})
	}
	return out
}

var unsyncSharedChecker = &Checker{
	ID:       "unsyncshared",
	Name:     "UnsyncedSharedWrite",
	Doc:      "shared object written with no single lock protecting all of its accesses (Eraser lockset)",
	Severity: diag.SevWarning,
	available: func(f *Facts) string {
		if f.Model == nil {
			return "requires the thread model (" + f.PrecisionNote + ")"
		}
		if f.MHP == nil {
			return "requires the interleaving analysis (" + f.PrecisionNote + ")"
		}
		if f.Locks == nil {
			return "requires the lock analysis (" + f.PrecisionNote + ")"
		}
		if f.Escape == nil {
			return "requires the escape analysis (" + f.PrecisionNote + ")"
		}
		return ""
	},
	run: unsyncSharedWrites,
}

// objAccess is one context-sensitive Load/Store instance on an object,
// with the lockset held at the access.
type objAccess struct {
	inst    locks.Inst
	isStore bool
	lockset map[ir.ObjID]bool
}

// unsyncSharedWrites implements the Eraser candidate-lockset discipline
// over the escape analysis's Shared objects: for each Shared object, the
// candidate set is the intersection of the locksets of its concurrent
// Load/Store accesses — those with at least one statement-level-MHP
// partner access on the same object. Restricting to concurrent accesses is
// the happens-before refinement (Eraser's ownership state machine,
// approximated by MHP): a parent's unlocked pre-fork initialization is
// ordered before every reader and must not void the lockset. An empty
// candidate set with at least one concurrent store is inconsistent
// locking. The report is object-granular, so it also fires when every
// individual pair shares SOME lock but no single lock covers all accesses.
func unsyncSharedWrites(f *Facts) []diag.Diagnostic {
	accessesOf := map[ir.ObjID][]objAccess{}
	for _, t := range f.Model.Threads {
		for _, fc := range sortedFuncs(f.Model, t) {
			for _, blk := range fc.Func.Blocks {
				for _, s := range blk.Stmts {
					var addr *ir.Var
					isStore := false
					switch a := s.(type) {
					case *ir.Load:
						addr = a.Addr
					case *ir.Store:
						addr = a.Addr
						isStore = true
					default:
						continue
					}
					inst := locks.Inst{Thread: t, Ctx: fc.Ctx, Stmt: s}
					var lockset map[ir.ObjID]bool
					for _, sp := range f.Locks.SpansOf(inst) {
						if lockset == nil {
							lockset = map[ir.ObjID]bool{}
						}
						lockset[sp.LockObj.ID] = true
					}
					f.pointsTo(addr).ForEach(func(id uint32) {
						obj := f.Prog.Objects[id]
						if !f.Escape.IsShared(obj.ID) {
							return
						}
						accessesOf[obj.ID] = append(accessesOf[obj.ID],
							objAccess{inst: inst, isStore: isStore, lockset: lockset})
					})
				}
			}
		}
	}

	ids := make([]ir.ObjID, 0, len(accessesOf))
	for id := range accessesOf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// A statement recurs once per (thread, ctx) instance in accessesOf and
	// once per object it may touch; statement-level MHP is asked once per
	// statement pair.
	type stmtPair struct{ a, b ir.StmtID }
	mhpMemo := map[stmtPair]bool{}
	mhpStmts := func(a, b ir.Stmt) bool {
		k := stmtPair{a.ID(), b.ID()}
		v, ok := mhpMemo[k]
		if !ok {
			v = f.MHP.MHPStmts(a, b)
			mhpMemo[k] = v
		}
		return v
	}

	var out []diag.Diagnostic
	for _, id := range ids {
		accs := accessesOf[id]
		// An access is concurrent when some other access of the same
		// object (or another runtime instance of itself, for multi
		// threads) may happen in parallel with it, statement-level.
		// partner[i] records the first such peer.
		partner := make([]int, len(accs))
		for i := range accs {
			partner[i] = -1
			for j := range accs {
				if i == j && !accs[i].inst.Thread.Multi {
					continue
				}
				if mhpStmts(accs[i].inst.Stmt, accs[j].inst.Stmt) {
					partner[i] = j
					break
				}
			}
		}
		var candidate map[ir.ObjID]bool
		first := true
		var store, other *objAccess
		for i := range accs {
			if partner[i] < 0 {
				continue // HB-ordered with every peer: exempt.
			}
			if first {
				candidate, first = accs[i].lockset, false
			} else {
				candidate = intersectLocksets(candidate, accs[i].lockset)
			}
			if accs[i].isStore && store == nil {
				store, other = &accs[i], &accs[partner[i]]
			}
		}
		if store == nil || len(candidate) > 0 {
			continue
		}
		obj := f.Prog.Objects[id]
		kind := "read"
		if other.isStore {
			kind = "written"
		}
		out = append(out, diag.Diagnostic{
			Line: ir.LineOf(store.inst.Stmt),
			Message: fmt.Sprintf(
				"shared object %s is written with an empty candidate lockset: no single lock protects all of its accesses",
				obj),
			Object:  obj.Name,
			Threads: []string{store.inst.Thread.String(), other.inst.Thread.String()},
			Related: []diag.Related{{
				Line:    ir.LineOf(other.inst.Stmt),
				Message: fmt.Sprintf("also %s here without a common lock", kind),
			}},
		})
	}
	return out
}

// intersectLocksets intersects two locksets; nil means empty.
func intersectLocksets(a, b map[ir.ObjID]bool) map[ir.ObjID]bool {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := map[ir.ObjID]bool{}
	for id := range a {
		if b[id] {
			out[id] = true
		}
	}
	return out
}

var escapeLeakChecker = &Checker{
	ID:       "escapeleak",
	Name:     "EscapeLeak",
	Doc:      "address of a thread-local stack object stored into a shared sink (latent escape)",
	Severity: diag.SevNote,
	available: func(f *Facts) string {
		if f.Model == nil {
			return "requires the thread model (" + f.PrecisionNote + ")"
		}
		if f.Escape == nil {
			return "requires the escape analysis (" + f.PrecisionNote + ")"
		}
		return ""
	},
	run: escapeLeaks,
}

// escapeLeaks flags stores that place the address of a ThreadLocal stack
// object into a Shared sink. The escape classification is accessor-based:
// as long as no other thread dereferences the leaked pointer the object
// stays ThreadLocal, so the leak is latent — the stack frame's lifetime is
// now entangled with shared state and any future reader turns it into a
// cross-thread stack access.
func escapeLeaks(f *Facts) []diag.Diagnostic {
	type key struct {
		store ir.StmtID
		local ir.ObjID
		sink  ir.ObjID
	}
	seen := map[key]bool{}
	var out []diag.Diagnostic
	for _, fn := range f.Prog.Funcs {
		if f.Reachable != nil && !f.Reachable[fn] {
			continue
		}
		for _, blk := range fn.Blocks {
			for _, s := range blk.Stmts {
				st, ok := s.(*ir.Store)
				if !ok {
					continue
				}
				sinks := f.pointsTo(st.Addr)
				leaked := f.pointsTo(st.Src)
				sinks.ForEach(func(gid uint32) {
					sink := f.Prog.Objects[gid]
					if !f.Escape.IsShared(sink.ID) {
						return
					}
					leaked.ForEach(func(xid uint32) {
						x := f.Prog.Objects[xid]
						if x.Root().Kind != ir.ObjStack ||
							f.Escape.ClassOf(x.ID) != escape.ThreadLocal ||
							x.ID == sink.ID {
							return
						}
						k := key{st.ID(), x.ID, sink.ID}
						if seen[k] {
							return
						}
						seen[k] = true
						out = append(out, diag.Diagnostic{
							Line: ir.LineOf(st),
							Message: fmt.Sprintf(
								"address of thread-local stack object %s stored into shared %s; it can now escape its owning thread",
								x, sink),
							Object: x.Name,
						})
					})
				})
			}
		}
	}
	return out
}
