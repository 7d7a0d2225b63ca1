package andersen

import (
	"math"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pts"
)

// Offline pointer equivalence by hash-based value numbering (HVN,
// Hardekopf & Lin, SAS'07). Before solving, every variable is labelled
// with a set of value numbers that determines its final points-to set:
// variables with equal label sets are pointer-equivalent and share one
// solver node, and a variable with an empty label set provably points to
// nothing.
//
// The offline graph has an edge into each variable from every copy source
// it has before solving (copy, phi, ret, direct-call and direct-fork
// bindings) and from the address of each load and the base of each gep
// defining it. Its SCCs are labelled in topological order; an SCC of copy
// edges is one class, and its label set is the union of
//
//   - the ObjIDs its members take the address of (AddrOf, fork handles);
//   - the label sets of its copy predecessors;
//   - one value number per load address class and one per (gep base class,
//     field): loads through, and geps off, equivalent pointers yield equal
//     sets;
//   - a fresh value number for a member fed only while solving: a parameter
//     of an address-taken function or the result of an indirect call.
//
// An SCC with a load or gep inside (n = n->next in a loop) is not a copy
// cycle: its members' sets differ and depend on solving, so each member is
// a class of its own with a fresh value number, and the online sweeps
// merge any copy cycle among them. Such SCCs are rare (the Table 1 suite
// has none); elsewhere the classes merge every initial copy cycle.

// Edge kinds of the offline graph; any other kind is a gep's field.
const (
	copyEdge int32 = math.MinInt32
	loadEdge int32 = math.MinInt32 + 1
)

// emptyClass is the class of the variables that provably point to
// nothing. It is node 0 of the solver and never carries a constraint.
const emptyClass node = 0

// labelKey names the value number of a load (kind loadEdge) or a gep
// (kind = field) off the pointers whose label set is set.
type labelKey struct {
	set  engine.SetID
	kind int32
}

// offlineEdge is an offline-graph edge src → dst.
type offlineEdge struct {
	src, dst node
	kind     int32
}

// classify returns the pointer-equivalence class of every variable, by
// VarID, and the number of classes. Classes are numbered densely in
// topological order from emptyClass. The pass polls cancel once per SCC.
func classify(prog *ir.Program, cancel *engine.Canceller) ([]node, int, error) {
	numVars := len(prog.Vars)
	it := engine.NewInterner()
	next := uint32(len(prog.Objects)) // value numbers past the ObjIDs
	fresh := func() uint32 {
		next++
		return next - 1
	}

	// Seed labels and offline edges from every statement.
	seed := make([]engine.SetID, numVars)
	edges := make([]offlineEdge, 0, len(prog.Stmts))
	edge := func(src, dst *ir.Var, kind int32) {
		edges = append(edges, offlineEdge{src: node(src.ID), dst: node(dst.ID), kind: kind})
	}
	label := func(v *ir.Var, l uint32) { seed[v.ID] = it.Add(seed[v.ID], l) }
	addrTaken := map[*ir.Function]bool{}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				switch st := st.(type) {
				case *ir.AddrOf:
					label(st.Dst, uint32(st.Obj.ID))
					if st.Obj.Kind == ir.ObjFunc && st.Obj.Func != nil {
						addrTaken[st.Obj.Func] = true
					}
				case *ir.Copy:
					edge(st.Src, st.Dst, copyEdge)
				case *ir.Phi:
					for _, in := range st.Incoming {
						if in != nil {
							edge(in, st.Dst, copyEdge)
						}
					}
				case *ir.Load:
					edge(st.Addr, st.Dst, loadEdge)
				case *ir.Gep:
					edge(st.Base, st.Dst, int32(st.Field))
				case *ir.Call:
					if st.Callee == nil {
						if st.Dst != nil {
							label(st.Dst, fresh())
						}
						continue
					}
					for i := 0; i < len(st.Args) && i < len(st.Callee.Params); i++ {
						edge(st.Args[i], st.Callee.Params[i], copyEdge)
					}
					if st.Dst != nil && st.Callee.RetVar != nil {
						edge(st.Callee.RetVar, st.Dst, copyEdge)
					}
				case *ir.Ret:
					if st.Val != nil && f.RetVar != nil {
						edge(st.Val, f.RetVar, copyEdge)
					}
				case *ir.Fork:
					if st.Dst != nil {
						label(st.Dst, uint32(st.Handle.ID))
					}
					if st.Routine != nil && st.Arg != nil && len(st.Routine.Params) > 0 {
						edge(st.Arg, st.Routine.Params[0], copyEdge)
					}
				}
			}
		}
	}
	for _, f := range prog.Funcs {
		if addrTaken[f] {
			for _, p := range f.Params {
				label(p, fresh())
			}
		}
	}

	// Store the edges by destination: preds[off[v]:off[v+1]] are v's
	// sources, kinds the parallel edge kinds.
	off := make([]uint32, numVars+1)
	for _, e := range edges {
		off[e.dst+1]++
	}
	for v := 0; v < numVars; v++ {
		off[v+1] += off[v]
	}
	fill := append([]uint32(nil), off[:numVars]...)
	preds := make([]node, len(edges))
	kinds := make([]int32, len(edges))
	for _, e := range edges {
		preds[fill[e.dst]], kinds[fill[e.dst]] = e.src, e.kind
		fill[e.dst]++
	}

	// Label the SCCs in topological order: walking predecessors, Tarjan
	// emits each SCC after every SCC that reaches it. An SCC's label set is
	// the union of its input sets: seeds, copy predecessors' sets and value
	// singletons. The common SCC has one input and takes it as is.
	sets := make([]engine.SetID, numVars)
	class := make([]node, numVars)
	classOf := []node{emptyClass} // by label SetID; 0 = not yet a class
	numClasses := 1
	values := map[labelKey]engine.SetID{}
	var (
		set    engine.SetID
		inputs int
		acc    pts.Set
	)
	input := func(in engine.SetID) {
		switch {
		case in == engine.EmptySet || in == set:
			return
		case inputs == 0:
			set = in
		case inputs == 1:
			acc.Clear()
			acc.UnionWith(it.Set(set))
			fallthrough
		default:
			acc.UnionWith(it.Set(in))
		}
		inputs++
	}
	assign := func(m node, id engine.SetID) {
		if int(id) >= len(classOf) {
			classOf = extend(classOf, int(id)+1, 2*int(id)+2)
		}
		if classOf[id] == emptyClass && id != engine.EmptySet {
			classOf[id] = node(numClasses)
			numClasses++
		}
		sets[m], class[m] = id, classOf[id]
	}
	scc := make([]int32, numVars) // SCC number of each labelled variable, from 1
	var k int32
	var t tarjanState
	if !t.sccs(numVars, func(v node) node { return v }, func(v node) []node {
		return preds[off[v]:off[v+1]]
	}, func(members []node) bool {
		k++
		for _, m := range members {
			scc[m] = k
		}
		set, inputs = engine.EmptySet, 0
		for _, m := range members {
			input(seed[m])
			for e := off[m]; e < off[m+1]; e++ {
				src, kind := preds[e], kinds[e]
				switch {
				case kind == copyEdge:
					input(sets[src])
				case scc[src] == k:
					// A load or gep inside the SCC: the members' sets
					// differ, and each is fed only while solving.
					for _, m := range members {
						assign(m, it.Singleton(fresh()))
					}
					return !cancel.Cancelled()
				case sets[src] != engine.EmptySet:
					key := labelKey{set: sets[src], kind: kind}
					v, ok := values[key]
					if !ok {
						v = it.Singleton(fresh())
						values[key] = v
					}
					input(v)
				}
			}
		}
		if inputs > 1 {
			set = it.Intern(&acc)
		}
		for _, m := range members {
			assign(m, set)
		}
		return !cancel.Cancelled()
	}) {
		return nil, 0, cancel.Err()
	}
	return class, numClasses, nil
}
