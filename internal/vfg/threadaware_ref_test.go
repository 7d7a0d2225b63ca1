package vfg

import (
	"context"

	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/threads"
)

// buildReference constructs the def-use graph with refThreadAware in place
// of buildThreadAware: the differential tests' oracle. Every reference
// edge is stored directly, so ThreadEdges is the stored count.
func buildReference(model *threads.Model, opt Options) (*gbuilder, error) {
	b, err := buildSequential(context.Background(), model, opt, true)
	if err != nil {
		return nil, err
	}
	b.adjacency(0)
	if !opt.ThreadOblivious {
		if err := b.refThreadAware(); err != nil {
			return nil, err
		}
	}
	b.g.ThreadEdges = b.g.StoredThreadEdges
	return b, nil
}

// refThreadAware is the straightforward [THREAD-VF] enumeration: per
// object, every store of it against every access of it, with statement-pair
// MHP memoized in a map, the lock filter rebuilt from MHPInstances per
// object, and every edge recorded in a dedupe map. Under NoValueFlow it
// connects every store with every load and other store over all objects the
// store may define. buildThreadAware must produce the same edge multiset and
// counters.
func (b *gbuilder) refThreadAware() error {
	g := b.g
	seen := map[refEdge]bool{}

	var stores []*ir.Store
	var loads []*ir.Load
	storesOf := map[ir.ObjID][]*ir.Store{}
	accessesOf := map[ir.ObjID][]ir.Stmt{}
	for _, s := range g.Prog.Stmts {
		switch s := s.(type) {
		case *ir.Store:
			stores = append(stores, s)
			g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
				storesOf[ir.ObjID(id)] = append(storesOf[ir.ObjID(id)], s)
				accessesOf[ir.ObjID(id)] = append(accessesOf[ir.ObjID(id)], s)
			})
		case *ir.Load:
			loads = append(loads, s)
			g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
				accessesOf[ir.ObjID(id)] = append(accessesOf[ir.ObjID(id)], s)
			})
		}
	}

	if b.opt.NoValueFlow {
		for _, s := range stores {
			var peers []ir.Stmt
			for _, l := range loads {
				peers = append(peers, l)
			}
			for _, s2 := range stores {
				if s2 != s {
					peers = append(peers, s2)
				}
			}
			for _, peer := range peers {
				if !b.refPairMHP(s, peer) {
					continue
				}
				g.Pre.PointsToVar(s.Addr).ForEach(func(id uint32) {
					obj := g.Prog.Objects[id]
					if b.refLockFiltered(s, peer, obj) {
						g.FilteredByLock++
						return
					}
					b.refConnect(seen, s, peer, obj)
				})
			}
		}
		return nil
	}

	type pairKey struct{ a, b ir.StmtID }
	mhpCache := map[pairKey]bool{}
	cachedMHP := func(s, peer ir.Stmt) bool {
		k := pairKey{a: s.ID(), b: peer.ID()}
		if v, ok := mhpCache[k]; ok {
			return v
		}
		v := b.refPairMHP(s, peer)
		mhpCache[k] = v
		return v
	}
	for objID, ss := range storesOf {
		if b.opt.Escape != nil && !b.opt.Escape.IsShared(objID) {
			g.FilteredByEscape++
			continue
		}
		obj := g.Prog.Objects[objID]
		for _, s := range ss {
			for _, peer := range accessesOf[objID] {
				if peer == ir.Stmt(s) {
					continue
				}
				if !cachedMHP(s, peer) {
					g.FilteredByVF++
					continue
				}
				if b.refLockFiltered(s, peer, obj) {
					g.FilteredByLock++
					continue
				}
				b.refConnect(seen, s, peer, obj)
			}
		}
	}
	return nil
}

// refEdge keys the reference enumeration's dedupe map.
type refEdge struct {
	from    int
	to      ir.Stmt // the peer access
	ungated bool
}

// refConnect adds the thread-aware edge store --obj--> peer and records it
// in seen, so a repeated edge would be dropped.
func (b *gbuilder) refConnect(seen map[refEdge]bool, s *ir.Store, peer ir.Stmt, obj *ir.Object) {
	chi := b.g.StoreChiNode(s, obj)
	ungated := false
	if chi < 0 {
		if !b.opt.NoValueFlow {
			return
		}
		chi, _ = b.storeChiOrNew(s, obj)
		ungated = true
	}
	switch peer := peer.(type) {
	case *ir.Load:
		gate := ungated || !b.g.Pre.PointsToVar(peer.Addr).Has(uint32(obj.ID))
		key := refEdge{from: chi, to: peer, ungated: gate}
		if !seen[key] {
			seen[key] = true
			b.addThreadLoadEdge(chi, peer, gate)
		}
	case *ir.Store:
		peerChi := b.g.StoreChiNode(peer, obj)
		if peerChi < 0 {
			if !b.opt.NoValueFlow {
				return
			}
			peerChi, _ = b.storeChiOrNew(peer, obj)
		}
		key := refEdge{from: chi, to: peer, ungated: ungated}
		if !seen[key] {
			seen[key] = true
			b.addThreadMemEdge(chi, peerChi, ungated)
		}
	}
}

func (b *gbuilder) refPairMHP(s, peer ir.Stmt) bool {
	if b.opt.Interleave != nil {
		return b.opt.Interleave.MHPStmts(s, peer)
	}
	return b.opt.PCG.MHPStmts(s, peer)
}

func (b *gbuilder) refLockFiltered(s *ir.Store, peer ir.Stmt, obj *ir.Object) bool {
	if b.opt.Locks == nil {
		return false
	}
	if b.opt.Interleave != nil {
		pairs := b.opt.Interleave.MHPInstances(s, peer)
		if len(pairs) == 0 {
			return false
		}
		for _, pr := range pairs {
			st := locks.Inst{Thread: pr[0].Thread, Ctx: pr[0].Ctx, Stmt: s}
			ac := locks.Inst{Thread: pr[1].Thread, Ctx: pr[1].Ctx, Stmt: peer}
			if !b.opt.Locks.NonInterfering(st, ac, obj) {
				return false
			}
		}
		return true
	}
	sInsts := b.refInstancesOf(s)
	pInsts := b.refInstancesOf(peer)
	any := false
	for _, i1 := range sInsts {
		for _, i2 := range pInsts {
			if i1.Thread == i2.Thread && !i1.Thread.Multi {
				continue
			}
			any = true
			if !b.opt.Locks.NonInterfering(i1, i2, obj) {
				return false
			}
		}
	}
	return any
}

func (b *gbuilder) refInstancesOf(s ir.Stmt) []locks.Inst {
	f := ir.StmtFunc(s)
	if f == nil {
		return nil
	}
	var out []locks.Inst
	for _, t := range b.g.Model.Threads {
		for fc := range b.g.Model.Funcs(t) {
			if fc.Func == f {
				out = append(out, locks.Inst{Thread: t, Ctx: fc.Ctx, Stmt: s})
			}
		}
	}
	return out
}
