package core

import (
	"fmt"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// Method selects how a communication schedule is computed, following
// the paper's two implementations.
type Method int

const (
	// Cooperation has the source processes dereference the source
	// SetOfRegions, ship the results to the destination processes,
	// which dereference the destination side, complete the schedule for
	// both sides, and route each process its own portion.  It works for
	// any library, including those without compact descriptors.
	Cooperation Method = iota
	// Duplication has every process compute its own send and receive
	// lists independently from both data descriptors, dereferencing
	// each side twice (once per pass) but exchanging no schedule
	// fragments.  Between separate programs it requires both libraries
	// to serialize their descriptors and regions.
	Duplication
)

func (m Method) String() string {
	switch m {
	case Cooperation:
		return "cooperation"
	case Duplication:
		return "duplication"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Spec names one side of a data transfer: the library that distributes
// the object, the object itself, the SetOfRegions selecting elements,
// and the owning program's context.
type Spec struct {
	Lib Library
	Obj DistObject
	Set *SetOfRegions
	Ctx *Ctx
}

// PeerList is one aggregated message lane of a schedule: the peer's
// union-communicator rank and the local element offsets to pack (for a
// send) or unpack (for a receive), in linearization-position order and
// run-compressed (see runs.go).  Both endpoints hold offsets for the
// same position sequence, which is what makes the packed buffers line
// up.
type PeerList struct {
	Peer int
	Runs []Run
}

// Len returns the number of elements in the lane.
func (pl *PeerList) Len() int { return runsLen(pl.Runs) }

// Append adds one offset to the lane, coalescing runs.
func (pl *PeerList) Append(off int32) { pl.Runs = appendOffsetRun(pl.Runs, off) }

// Each calls f for every offset of the lane in packing order.
func (pl *PeerList) Each(f func(off int32)) {
	for _, r := range pl.Runs {
		for k := int32(0); k < r.Count; k++ {
			f(r.At(k))
		}
	}
}

// ExpandOffsets materializes the lane's offsets as a fresh slice, for
// debugging and reference executors; the hot paths work on Runs.
func (pl *PeerList) ExpandOffsets() []int32 {
	out := make([]int32, 0, pl.Len())
	pl.Each(func(off int32) { out = append(out, off) })
	return out
}

// Schedule is one process's portion of a communication schedule.  It is
// symmetric: the same schedule copies data source-to-destination with
// Move/MoveSend/MoveRecv or destination-to-source with the Reverse
// variants.
type Schedule struct {
	union *mpsim.Comm
	elems int
	elem  ElemType

	Sends []PeerList
	Recvs []PeerList
	Local []LocalRun

	moveSeq int

	// timeout bounds each move's receive phase in virtual seconds when
	// the run uses the reliable transport; 0 means no deadline (moves
	// still fail fast on peers the transport abandoned).
	timeout float64

	// Executor scratch, cached across moves so a reused schedule packs,
	// ships and unpacks without allocating (see move.go).  A Schedule is
	// per-process state and moves are collective, so no locking.
	//
	// pool/lease back the zero-copy pack path: each move's staging
	// segments (strided runs, checksum trailers) come from the lease,
	// which recycles them once the transport's references drain.  sent
	// tracks the move's in-flight payloads until the move settles them.
	pool  *bufpool.Pool
	lease *bufpool.Lease
	sent  []*bufpool.Payload
	reqs  []*mpsim.Request

	// copiedC is the resolved "move.bytes_copied" counter when a tracer
	// is attached, cached so moves never hit the registry map.
	copiedC *obs.Counter

	// Reliability-path scratch (untouched when the transport is not
	// reliable): per-peer network-counter snapshots around a move.
	netBefore []mpsim.PairStats
	perPeer   []PeerNet
}

// SetMoveTimeout bounds every subsequent move's receive phase by d
// virtual seconds (reliable-transport runs only); peers that miss the
// deadline are reported in MoveResult.FailedPeers instead of hanging
// the move.  d = 0 removes the deadline.
func (s *Schedule) SetMoveTimeout(d float64) { s.timeout = d }

// releaseScratch returns the schedule's pooled staging segments to the
// buffer pool.  The schedule cache calls it when it evicts an entry;
// segments still referenced by in-flight payloads survive until those
// payloads release, and the schedule stays usable (the lease refills on
// the next move).
func (s *Schedule) releaseScratch() {
	if s.lease != nil {
		s.lease.Close()
	}
}

// appendLocal records one same-process (src, dst) element pair,
// coalescing runs.
func (s *Schedule) appendLocal(src, dst int32) { s.Local = appendLocalRun(s.Local, src, dst) }

// EachLocal calls f for every same-process (src, dst) element pair in
// schedule order.
func (s *Schedule) EachLocal(f func(src, dst int32)) {
	for _, lr := range s.Local {
		for k := int32(0); k < lr.Count; k++ {
			f(lr.Src+k*lr.SrcStride, lr.Dst+k*lr.DstStride)
		}
	}
}

// Elems returns the total number of elements the schedule transfers
// (across all processes).
func (s *Schedule) Elems() int { return s.elems }

// Elem returns the element type the schedule was built for.
func (s *Schedule) Elem() ElemType { return s.elem }

// ElemWords returns the per-element scalar count the schedule was
// built for.
func (s *Schedule) ElemWords() int { return s.elem.Words }

// SendCount returns the number of elements this process sends remotely.
func (s *Schedule) SendCount() int {
	n := 0
	for _, pl := range s.Sends {
		n += pl.Len()
	}
	return n
}

// RecvCount returns the number of elements this process receives
// remotely.
func (s *Schedule) RecvCount() int {
	n := 0
	for _, pl := range s.Recvs {
		n += pl.Len()
	}
	return n
}

// LocalCount returns the number of elements this process copies
// locally.
func (s *Schedule) LocalCount() int {
	n := 0
	for _, lr := range s.Local {
		n += int(lr.Count)
	}
	return n
}

// RunCount returns the total number of stored runs across the send,
// receive and local lists — the schedule's in-memory footprint in
// list entries (a regular transfer keeps this tiny no matter how many
// elements move, which is what makes ScheduleCache entries cheap).
func (s *Schedule) RunCount() int {
	n := len(s.Local)
	for _, pl := range s.Sends {
		n += len(pl.Runs)
	}
	for _, pl := range s.Recvs {
		n += len(pl.Runs)
	}
	return n
}

// tagMoveBase is the tag space data-move messages use; kept below
// mpsim's user tag cap and away from library-internal tags.
const tagMoveBase = 0x40000

// ComputeSchedule builds the communication schedule for copying the
// elements of the source SetOfRegions onto the destination
// SetOfRegions through their virtual linearizations.  It is collective
// over every process of both programs in the coupling: processes of
// the source program pass src (and dst nil unless they are also in the
// destination program), and vice versa; in a single program every
// process passes both.
func ComputeSchedule(c *Coupling, src, dst *Spec, method Method) (*Schedule, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil coupling")
	}
	if src == nil && dst == nil {
		return nil, fmt.Errorf("core: process is in neither side of the transfer")
	}
	myUnion := c.Union.Rank()
	if src != nil && c.SrcRanks[src.Ctx.Comm.Rank()] != myUnion {
		return nil, fmt.Errorf("core: source spec rank mapping inconsistent with coupling")
	}
	if dst != nil && c.DstRanks[dst.Ctx.Comm.Rank()] != myUnion {
		return nil, fmt.Errorf("core: destination spec rank mapping inconsistent with coupling")
	}
	p := c.Union.Proc()
	sp := p.Span("sched.compute")
	sched, err := computeSchedule(c, src, dst, method, p)
	sp.End(p.Clock())
	return sched, err
}

// computeSchedule is the body of ComputeSchedule, split out so the
// wrapping span closes on every return path.
func computeSchedule(c *Coupling, src, dst *Spec, method Method, p *mpsim.Proc) (*Schedule, error) {
	// Agree on element count and element type across both programs.
	// The element type rides in the int32 slot that used to carry the
	// bare word count (packElem), so float64 metadata — and therefore
	// the coupling's virtual-time message traffic — is unchanged.
	msp := p.Span("sched.meta")
	var mySrcMeta, myDstMeta []byte
	if src != nil && src.Ctx.Comm.Rank() == 0 {
		var w codec.Writer
		w.PutInt64(int64(src.Set.Size()))
		w.PutInt32(PackElem(src.Obj.Elem()))
		mySrcMeta = w.Bytes()
	}
	if dst != nil && dst.Ctx.Comm.Rank() == 0 {
		var w codec.Writer
		w.PutInt64(int64(dst.Set.Size()))
		w.PutInt32(PackElem(dst.Obj.Elem()))
		myDstMeta = w.Bytes()
	}
	srcMeta := c.Union.Bcast(c.SrcRanks[0], mySrcMeta)
	dstMeta := c.Union.Bcast(c.DstRanks[0], myDstMeta)
	sr, dr := codec.NewReader(srcMeta), codec.NewReader(dstMeta)
	nSrc, eSrc := int(sr.Int64()), UnpackElem(sr.Int32())
	nDst, eDst := int(dr.Int64()), UnpackElem(dr.Int32())
	msp.End(p.Clock())
	if nSrc != nDst {
		return nil, fmt.Errorf("core: source set has %d elements, destination %d", nSrc, nDst)
	}
	if eSrc != eDst {
		return nil, fmt.Errorf("core: source elements are %v, destination %v", eSrc, eDst)
	}

	sched := &Schedule{union: c.Union, elems: nSrc, elem: eSrc}
	switch method {
	case Cooperation:
		buildCooperation(c, src, dst, sched)
		return sched, nil
	case Duplication:
		if err := buildDuplication(c, src, dst, sched); err != nil {
			return nil, err
		}
		return sched, nil
	}
	return nil, fmt.Errorf("core: unknown schedule method %v", method)
}

// chunk splits n positions over parts workers: worker i handles
// [lo, hi).
func chunk(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// buildCooperation implements the paper's cooperation method; see
// Method for the outline.  Linearization positions are chunked over the
// source processes for the source dereference, rerouted into chunks
// over the destination processes, matched there, and the finished
// send/receive lists are routed to their owners with one all-to-all.
// Wire formats are run-length compressed (see rle.go), so regular
// transfers ship a handful of arithmetic runs rather than per-element
// records.
func buildCooperation(c *Coupling, src, dst *Spec, sched *Schedule) {
	n := sched.elems
	nS, nD := len(c.SrcRanks), len(c.DstRanks)
	p := c.Union.Proc()

	// Phase 1: source processes dereference their chunk of positions.
	sp := p.Span("sched.deref")
	var srcLocs []Loc
	var srcLo, srcHi int
	if src != nil {
		srcLo, srcHi = chunk(n, nS, src.Ctx.Comm.Rank())
		srcLocs = src.Lib.DerefRange(src.Ctx, src.Obj, src.Set, srcLo, srcHi)
	}
	sp.End(p.Clock())

	// Phase 2: route source locations to the destination processes
	// responsible for each position chunk.
	sp = p.Span("sched.route")
	bufs := make([][]byte, c.Union.Size())
	if src != nil {
		procs := make([]int32, 0, len(srcLocs))
		offs := make([]int32, 0, len(srcLocs))
		for _, loc := range srcLocs {
			procs = append(procs, loc.Proc)
			offs = append(offs, loc.Off)
		}
		for j := 0; j < nD; j++ {
			dLo, dHi := chunk(n, nD, j)
			a, b := max(srcLo, dLo), min(srcHi, dHi)
			if a >= b {
				continue
			}
			var w codec.Writer
			w.PutInt64(int64(a))
			encodePairs(&w, procs[a-srcLo:b-srcLo], offs[a-srcLo:b-srcLo])
			bufs[c.DstRanks[j]] = w.Bytes()
		}
	}
	parts := c.Union.Alltoall(bufs)
	sp.End(p.Clock())

	// Phase 3: destination processes dereference their chunk and join
	// it with the received source locations; phase 4: accumulate the
	// schedule fragments each owning process needs.
	sp = p.Span("sched.join")
	frag := make([]*fragAccum, c.Union.Size())
	fragOf := func(u int) *fragAccum {
		if frag[u] == nil {
			frag[u] = &fragAccum{}
		}
		return frag[u]
	}
	if dst != nil {
		dLo, dHi := chunk(n, nD, dst.Ctx.Comm.Rank())
		dstLocs := dst.Lib.DerefRange(dst.Ctx, dst.Obj, dst.Set, dLo, dHi)
		srcForChunk := make([]Loc, dHi-dLo)
		filled := 0
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			r := codec.NewReader(part)
			for r.Remaining() > 0 {
				a := int(r.Int64())
				k := 0
				decodePairs(r, func(proc, off int32) {
					srcForChunk[a-dLo+k] = Loc{Proc: proc, Off: off}
					k++
				})
				filled += k
			}
		}
		if filled != dHi-dLo {
			panic(fmt.Sprintf("core: cooperation join received %d of %d source locations", filled, dHi-dLo))
		}
		dst.Ctx.P.ChargeSectionOps(2 * (dHi - dLo))
		for k := dLo; k < dHi; k++ {
			s := srcForChunk[k-dLo]
			d := dstLocs[k-dLo]
			sU := int32(c.SrcRanks[s.Proc])
			dU := int32(c.DstRanks[d.Proc])
			if sU == dU {
				f := fragOf(int(sU))
				f.locSrc = append(f.locSrc, s.Off)
				f.locDst = append(f.locDst, d.Off)
			} else {
				fs := fragOf(int(sU))
				fs.sendPeer = append(fs.sendPeer, dU)
				fs.sendOff = append(fs.sendOff, s.Off)
				fd := fragOf(int(dU))
				fd.recvPeer = append(fd.recvPeer, sU)
				fd.recvOff = append(fd.recvOff, d.Off)
			}
		}
	}

	sp.End(p.Clock())

	// Phase 5: one all-to-all routes every fragment to its owner; each
	// process assembles its lists.  Fragments arrive ordered by
	// producing chunk, and chunks are position-ordered, so the
	// per-peer offset lists come out in linearization order without
	// sorting.
	sp = p.Span("sched.assemble")
	fragBufs := make([][]byte, c.Union.Size())
	for u, f := range frag {
		if f != nil {
			var w codec.Writer
			encodePairs(&w, f.sendPeer, f.sendOff)
			encodePairs(&w, f.recvPeer, f.recvOff)
			encodePairs(&w, f.locSrc, f.locDst)
			fragBufs[u] = w.Bytes()
		}
	}
	mine := c.Union.Alltoall(fragBufs)

	sendMap := map[int]*PeerList{}
	recvMap := map[int]*PeerList{}
	var sendOrder, recvOrder []int
	total := 0
	laneOf := func(m map[int]*PeerList, order *[]int, peer int) *PeerList {
		pl := m[peer]
		if pl == nil {
			pl = &PeerList{Peer: peer}
			m[peer] = pl
			*order = append(*order, peer)
		}
		return pl
	}
	// Wire run tokens become in-memory runs directly: a (peer, offset)
	// run with constant peer lands as one Run on that peer's lane, so a
	// regular transfer never expands to per-element lists at any point
	// between dereference and execution.
	laneLit := func(m map[int]*PeerList, order *[]int) func(peer, off int32) {
		return func(peer, off int32) {
			laneOf(m, order, int(peer)).Append(off)
			total++
		}
	}
	laneRun := func(m map[int]*PeerList, order *[]int) func(p0, dp, o0, do, count int32) {
		return func(p0, dp, o0, do, count int32) {
			if dp == 0 {
				pl := laneOf(m, order, int(p0))
				pl.Runs = appendWholeRun(pl.Runs, o0, do, count)
			} else {
				for k := int32(0); k < count; k++ {
					laneOf(m, order, int(p0+k*dp)).Append(o0 + k*do)
				}
			}
			total += int(count)
		}
	}
	for _, part := range mine {
		if len(part) == 0 {
			continue
		}
		r := codec.NewReader(part)
		decodePairsRuns(r, laneLit(sendMap, &sendOrder), laneRun(sendMap, &sendOrder))
		decodePairsRuns(r, laneLit(recvMap, &recvOrder), laneRun(recvMap, &recvOrder))
		decodePairsRuns(r,
			func(so, do int32) {
				sched.appendLocal(so, do)
				total++
			},
			func(s0, ds, d0, dd, count int32) {
				sched.Local = appendWholeLocalRun(sched.Local, s0, ds, d0, dd, count)
				total += int(count)
			})
	}
	p.ChargeSectionOps(total)
	for _, peer := range sendOrder {
		sched.Sends = append(sched.Sends, *sendMap[peer])
	}
	for _, peer := range recvOrder {
		sched.Recvs = append(sched.Recvs, *recvMap[peer])
	}
	sp.End(p.Clock())
}

// fragAccum gathers one owning process's schedule fragments before
// run-length encoding.
type fragAccum struct {
	sendPeer, sendOff []int32
	recvPeer, recvOff []int32
	locSrc, locDst    []int32
}

// buildDuplication implements the paper's duplication method: every
// process derives its own send lists (pass one) and receive lists
// (pass two) directly from the two data descriptors, calling each
// library's dereference machinery twice but exchanging no schedule
// fragments.  Between separate programs the descriptors and regions
// are exchanged first, which requires both libraries to implement
// DescriptorCodec and RegionCodec.
func buildDuplication(c *Coupling, src, dst *Spec, sched *Schedule) error {
	p := c.Union.Proc()
	singleProgram := src != nil && dst != nil
	if !singleProgram {
		sp := p.Span("sched.exchange")
		var err error
		src, dst, err = exchangeDescriptors(c, src, dst)
		sp.End(p.Clock())
		if err != nil {
			return err
		}
	}
	myUnion := c.Union.Rank()

	// Pass one: build send lists from the elements I own on the source
	// side.
	sp := p.Span("sched.deref")
	if !src.Obj.LocalMem().IsNil() {
		owned := src.Lib.OwnedPositions(src.Ctx, src.Obj, src.Set)
		positions := make([]int32, len(owned))
		for i, pl := range owned {
			positions[i] = pl.Pos
		}
		dLocs := dst.Lib.DerefAt(dst.Ctx, dst.Obj, dst.Set, positions)
		sendMap := map[int]*PeerList{}
		var order []int
		for i, pl := range owned {
			dU := c.DstRanks[dLocs[i].Proc]
			if dU == myUnion {
				sched.appendLocal(pl.Off, dLocs[i].Off)
				continue
			}
			l := sendMap[dU]
			if l == nil {
				l = &PeerList{Peer: dU}
				sendMap[dU] = l
				order = append(order, dU)
			}
			l.Append(pl.Off)
		}
		for _, peer := range order {
			sched.Sends = append(sched.Sends, *sendMap[peer])
		}
	}
	sp.End(p.Clock())

	// Pass two: build receive lists from the elements I own on the
	// destination side.
	sp = p.Span("sched.deref")
	if !dst.Obj.LocalMem().IsNil() {
		owned := dst.Lib.OwnedPositions(dst.Ctx, dst.Obj, dst.Set)
		positions := make([]int32, len(owned))
		for i, pl := range owned {
			positions[i] = pl.Pos
		}
		sLocs := src.Lib.DerefAt(src.Ctx, src.Obj, src.Set, positions)
		recvMap := map[int]*PeerList{}
		var order []int
		for i, pl := range owned {
			sU := c.SrcRanks[sLocs[i].Proc]
			if sU == myUnion {
				continue // already recorded as a local pair in pass one
			}
			l := recvMap[sU]
			if l == nil {
				l = &PeerList{Peer: sU}
				recvMap[sU] = l
				order = append(order, sU)
			}
			l.Append(pl.Off)
		}
		for _, peer := range order {
			sched.Recvs = append(sched.Recvs, *recvMap[peer])
		}
	}
	sp.End(p.Clock())
	return nil
}

// exchangeDescriptors implements the descriptor/region exchange that
// lets two separate programs run the duplication method.  Each
// program's root broadcasts its library name, encoded descriptor and
// encoded regions over the union; the peer program decodes a
// descriptor-only remote view.
func exchangeDescriptors(c *Coupling, src, dst *Spec) (*Spec, *Spec, error) {
	encodeSide := func(sp *Spec) ([]byte, error) {
		codecLib, ok := sp.Lib.(DescriptorCodec)
		if !ok {
			return nil, fmt.Errorf("core: library %q does not support descriptor exchange; use the cooperation method", sp.Lib.Name())
		}
		rcodec, ok := sp.Lib.(RegionCodec)
		if !ok {
			return nil, fmt.Errorf("core: library %q does not support region exchange; use the cooperation method", sp.Lib.Name())
		}
		desc, _ := codecLib.EncodeDescriptor(sp.Ctx, sp.Obj)
		var w codec.Writer
		w.PutInt32(0) // status: ok
		w.PutString(sp.Lib.Name())
		w.PutBytes(desc)
		w.PutInt32(int32(sp.Set.Len()))
		for i := 0; i < sp.Set.Len(); i++ {
			w.PutBytes(rcodec.EncodeRegion(sp.Set.Region(i)))
		}
		return w.Bytes(), nil
	}
	decodeSide := func(r *codec.Reader, progComm ctxComm) (*Spec, error) {
		name := r.String()
		lib, err := LookupLibrary(name)
		if err != nil {
			return nil, err
		}
		dcodec, ok := lib.(DescriptorCodec)
		if !ok {
			return nil, fmt.Errorf("core: library %q cannot decode descriptors", name)
		}
		rcodec := lib.(RegionCodec)
		view, err := dcodec.DecodeDescriptor(r.Bytes())
		if err != nil {
			return nil, err
		}
		set := NewSetOfRegions()
		nr := int(r.Int32())
		for i := 0; i < nr; i++ {
			reg, err := rcodec.DecodeRegion(r.Bytes())
			if err != nil {
				return nil, err
			}
			set.Add(reg)
		}
		return &Spec{Lib: lib, Obj: view, Set: set, Ctx: NewCtx(progComm.p, progComm.comm)}, nil
	}

	var mySrcBlob, myDstBlob []byte
	var err error
	if src != nil {
		// Collective over the source program: every process helps
		// assemble the (possibly distributed) descriptor; rank 0's blob
		// feeds the broadcast.
		blob, encErr := encodeSide(src)
		if src.Ctx.Comm.Rank() == 0 {
			mySrcBlob = blob
			if encErr != nil {
				mySrcBlob = encodeError(encErr)
			}
		}
	}
	if dst != nil {
		blob, encErr := encodeSide(dst)
		if dst.Ctx.Comm.Rank() == 0 {
			myDstBlob = blob
			if encErr != nil {
				myDstBlob = encodeError(encErr)
			}
		}
	}
	srcBlob := c.Union.Bcast(c.SrcRanks[0], mySrcBlob)
	dstBlob := c.Union.Bcast(c.DstRanks[0], myDstBlob)
	srcReader, err := checkBlob(srcBlob)
	if err != nil {
		return nil, nil, err
	}
	dstReader, err := checkBlob(dstBlob)
	if err != nil {
		return nil, nil, err
	}
	if src == nil {
		cc := ctxComm{p: dst.Ctx.P, comm: dst.Ctx.Comm}
		if src, err = decodeSide(srcReader, cc); err != nil {
			return nil, nil, err
		}
	}
	if dst == nil {
		cc := ctxComm{p: src.Ctx.P, comm: src.Ctx.Comm}
		if dst, err = decodeSide(dstReader, cc); err != nil {
			return nil, nil, err
		}
	}
	return src, dst, nil
}

type ctxComm struct {
	p    *mpsim.Proc
	comm *mpsim.Comm
}

// Descriptor blobs start with a status word so an encode failure on one
// program surfaces as an error on both rather than a protocol hang.
func encodeError(err error) []byte {
	var w codec.Writer
	w.PutInt32(1)
	w.PutString(err.Error())
	return w.Bytes()
}

func checkBlob(blob []byte) (*codec.Reader, error) {
	r := codec.NewReader(blob)
	if r.Int32() == 1 {
		return nil, fmt.Errorf("core: descriptor exchange failed: %s", r.String())
	}
	return r, nil
}

// RegionCodec is the optional extension that serializes a library's
// regions, required (together with DescriptorCodec) for the
// duplication method between separate programs.
type RegionCodec interface {
	EncodeRegion(r Region) []byte
	DecodeRegion(data []byte) (Region, error)
}
