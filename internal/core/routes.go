package core

import "fmt"

// Route maps: a position-indexed, run-compressed description of one
// transfer's element routing — for every linearization position, which
// (source rank, source offset) feeds which (destination rank,
// destination offset).  A RouteMap is what a Schedule looks like
// *before* it is specialized to one process: every rank holding the
// same route map assembles its own send/receive/local lists from it
// locally (NewScheduleFromRoutes), with no communication.  That is how
// a schedule is rebuilt without the collective inspector: the elastic
// grow path and the coupling service derive the map from both sides'
// descriptors and assemble from it, in O(runs of the map).
//
// Ranks in a RouteMap are *world* ranks, not union ranks.  Union ranks
// are renumbered by every grow or shrink (the union communicator is
// sorted by world rank), so a route map keyed on union ranks would rot
// at each membership change; world ranks are stable for the life of
// the simulated world, and assembly translates them through the
// current union's RankOf at the last moment.

// RouteRun is one run of consecutively routed positions: positions
// [Pos, Pos+Count) come from SrcRank at offsets SrcOff, SrcOff+
// SrcStride, ... and land on DstRank at offsets DstOff, DstOff+
// DstStride, ....  Ranks are world ranks.
type RouteRun struct {
	Pos   int32
	Count int32

	SrcRank int32
	DstRank int32

	SrcOff    int32
	SrcStride int32
	DstOff    int32
	DstStride int32
}

// srcAt returns the source offset of the k-th position of the run.
func (r *RouteRun) srcAt(k int32) int32 { return r.SrcOff + k*r.SrcStride }

// dstAt returns the destination offset of the k-th position of the run.
func (r *RouteRun) dstAt(k int32) int32 { return r.DstOff + k*r.DstStride }

// RouteMap is a transfer's complete routing: runs sorted by position,
// disjoint, covering [0, Elems).
type RouteMap struct {
	Elems int
	Runs  []RouteRun
}

// appendRouteRun extends runs with one position's routing, fusing it
// into the tail run when ranks match and both offset progressions line
// up.
func appendRouteRun(runs []RouteRun, pos, srcRank, srcOff, dstRank, dstOff int32) []RouteRun {
	if n := len(runs); n > 0 {
		last := &runs[n-1]
		if last.SrcRank == srcRank && last.DstRank == dstRank && pos == last.Pos+last.Count {
			switch {
			case last.Count == 1:
				last.SrcStride = srcOff - last.SrcOff
				last.DstStride = dstOff - last.DstOff
				last.Count = 2
				return runs
			case srcOff == last.srcAt(last.Count) && dstOff == last.dstAt(last.Count):
				last.Count++
				return runs
			}
		}
	}
	return append(runs, RouteRun{Pos: pos, Count: 1, SrcRank: srcRank, DstRank: dstRank, SrcOff: srcOff, DstOff: dstOff})
}

// ComputeRoutes derives the transfer's route map locally, by
// dereferencing both sides over the full position range.  Unlike
// ComputeSchedule it is not collective — but it requires both
// descriptors (both Specs non-nil, with Deref-capable libraries) on the
// calling process, which is exactly the situation in the coupling
// service (every rank decodes both DistSpecs from the broadcast) and in
// single-program transfers.  Virtual time is charged through the
// libraries' own dereference accounting.
func ComputeRoutes(c *Coupling, src, dst *Spec) (*RouteMap, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("core: route computation needs both descriptors locally")
	}
	n := src.Set.Size()
	if dn := dst.Set.Size(); dn != n {
		return nil, fmt.Errorf("core: source set has %d elements, destination %d", n, dn)
	}
	srcLocs := src.Lib.DerefRange(src.Ctx, src.Obj, src.Set, 0, n)
	dstLocs := dst.Lib.DerefRange(dst.Ctx, dst.Obj, dst.Set, 0, n)
	rm := &RouteMap{Elems: n}
	for i := 0; i < n; i++ {
		sw := int32(c.Union.WorldRank(c.SrcRanks[srcLocs[i].Proc]))
		dw := int32(c.Union.WorldRank(c.DstRanks[dstLocs[i].Proc]))
		rm.Runs = appendRouteRun(rm.Runs, int32(i), sw, srcLocs[i].Off, dw, dstLocs[i].Off)
	}
	return rm, nil
}

// BlockRoutes builds the route map of an irregular-block
// redistribution directly from the per-part element counts, in
// O(parts) — no dereference, no Ctx, no world.  Part i of the source
// side holds srcCounts[i] consecutive positions (offsets 0..count-1
// locally) on world rank srcWorld[i]; likewise for the destination.
// It is the cheap constructor for the common "a boundary shifted / a
// rank joined" case, and the harness-side generator for assembly
// benchmarks and tests.
func BlockRoutes(srcCounts, dstCounts, srcWorld, dstWorld []int) (*RouteMap, error) {
	if len(srcCounts) != len(srcWorld) || len(dstCounts) != len(dstWorld) {
		return nil, fmt.Errorf("core: block routes: counts and world-rank lists disagree (%d/%d source, %d/%d destination)",
			len(srcCounts), len(srcWorld), len(dstCounts), len(dstWorld))
	}
	n, nd := 0, 0
	for _, c := range srcCounts {
		n += c
	}
	for _, c := range dstCounts {
		nd += c
	}
	if n != nd {
		return nil, fmt.Errorf("core: block routes: source covers %d elements, destination %d", n, nd)
	}
	rm := &RouteMap{Elems: n}
	pos := 0
	si, di := 0, 0       // current part on each side
	sBase, dBase := 0, 0 // global position where the current part starts
	for pos < n {
		for si < len(srcCounts) && pos >= sBase+srcCounts[si] {
			sBase += srcCounts[si]
			si++
		}
		for di < len(dstCounts) && pos >= dBase+dstCounts[di] {
			dBase += dstCounts[di]
			di++
		}
		end := n
		if e := sBase + srcCounts[si]; e < end {
			end = e
		}
		if e := dBase + dstCounts[di]; e < end {
			end = e
		}
		rm.Runs = append(rm.Runs, RouteRun{
			Pos:     int32(pos),
			Count:   int32(end - pos),
			SrcRank: int32(srcWorld[si]), DstRank: int32(dstWorld[di]),
			SrcOff: int32(pos - sBase), SrcStride: 1,
			DstOff: int32(pos - dBase), DstStride: 1,
		})
		pos = end
	}
	return rm, nil
}

// NewScheduleFromRoutes assembles a process's schedule directly from a
// route map, with no communication at all.  Every process holding the
// same (SPMD-replicated) route map derives lists that interoperate lane
// for lane with its peers', because both endpoints of every lane
// enumerate the same positions in the same order — and those lists
// equal, in lane order, what the collective ComputeSchedule builds for
// the same transfer.  myWorld is the calling process's world rank.
func NewScheduleFromRoutes(g *Coupling, rm *RouteMap, et ElemType, myWorld int) (*Schedule, error) {
	if rm == nil {
		return nil, fmt.Errorf("core: building schedule from nil route map")
	}
	s := &Schedule{union: g.Union, elems: rm.Elems, elem: et}
	if err := s.assembleFromRoutes(rm, myWorld); err != nil {
		return nil, err
	}
	return s, nil
}

// assembleFromRoutes fills the schedule's send/receive/local lists for
// world rank myWorld from rm, translating peer world ranks to ranks of
// the schedule's union.  Lanes come out in first-encounter order over
// the position-sorted runs — the same order both collective builders
// produce, since their fragments arrive in position order too.
func (s *Schedule) assembleFromRoutes(rm *RouteMap, myWorld int) error {
	my := int32(myWorld)
	laneIdx := map[int]int{}
	lane := func(lanes *[]PeerList, peerWorld int32) (*PeerList, error) {
		u, ok := s.union.RankOf(int(peerWorld))
		if !ok {
			return nil, fmt.Errorf("core: route peer world rank %d is not in the union", peerWorld)
		}
		// Send and receive peers share the index map: a rank never both
		// sends to and receives from the same peer within one schedule
		// direction (a position routes one way), except through distinct
		// lanes keyed by list identity — so key on (list, peer).
		key := u*2 + 1
		if lanes == &s.Sends {
			key = u * 2
		}
		if i, ok := laneIdx[key]; ok {
			return &(*lanes)[i], nil
		}
		laneIdx[key] = len(*lanes)
		*lanes = append(*lanes, PeerList{Peer: u})
		return &(*lanes)[len(*lanes)-1], nil
	}
	for i := range rm.Runs {
		r := &rm.Runs[i]
		switch {
		case r.SrcRank == my && r.DstRank == my:
			s.Local = appendWholeLocalRun(s.Local, r.SrcOff, r.SrcStride, r.DstOff, r.DstStride, r.Count)
		case r.SrcRank == my:
			pl, err := lane(&s.Sends, r.DstRank)
			if err != nil {
				return err
			}
			pl.Runs = appendWholeRun(pl.Runs, r.SrcOff, r.SrcStride, r.Count)
		case r.DstRank == my:
			pl, err := lane(&s.Recvs, r.SrcRank)
			if err != nil {
				return err
			}
			pl.Runs = appendWholeRun(pl.Runs, r.DstOff, r.DstStride, r.Count)
		}
	}
	return nil
}
