package mpsim

import (
	"errors"
	"fmt"
	"sync"

	"metachaos/internal/bufpool"
)

// Imperfect networks and the reliable transport.
//
// The paper's Alpha-farm experiments ran PVM over UDP across a shared
// ATM link, where loss, duplication, reordering and delay spikes are
// real.  This file models that substrate: a deterministic fault
// injector decides the fate of every remote transmission, and an
// opt-in reliable transport (per-link sequence numbers, acks,
// retransmission with exponential backoff in virtual time, and
// receive-side dedup/reassembly) restores the in-order exactly-once
// delivery the rest of the stack assumes — the LPF-style argument that
// a communication layer should stay model-compliant while absorbing
// transport imperfections.
//
// Faulted delivery is event-driven: transmissions, retransmissions,
// acks and receive deadlines are virtual-time timers interleaved with
// process execution by the scheduler, so runs remain fully
// deterministic (same seed, same timers, same clocks).  Messages
// between processes of one node (shared memory) bypass the network
// layer and are never faulted, matching the paper's platforms where
// only the inter-node fabric was unreliable.

// ErrTimeout is returned (wrapped in a *NetError) when a blocking
// operation's virtual-time deadline passes before it can complete.
var ErrTimeout = errors.New("virtual-time deadline exceeded")

// ErrPeerUnreachable is returned (wrapped in a *NetError) when the
// reliable transport has abandoned a peer after exhausting its
// retransmission budget.
var ErrPeerUnreachable = errors.New("peer unreachable: retransmission limit exceeded")

// NetError describes a failed communication operation.
type NetError struct {
	// Op names the failed operation ("recv", "wait", "collective").
	Op string
	// Rank is the world rank of the process that observed the failure.
	Rank int
	// Peer is the world rank of the remote endpoint, or -1 when the
	// operation was not bound to one peer (AnySource, collectives).
	Peer int
	// Err is ErrTimeout, ErrPeerUnreachable or ErrPeerDead.
	Err error
}

func (e *NetError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("mpsim: %s on rank %d (peer %d): %v", e.Op, e.Rank, e.Peer, e.Err)
	}
	return fmt.Sprintf("mpsim: %s on rank %d: %v", e.Op, e.Rank, e.Err)
}

func (e *NetError) Unwrap() error { return e.Err }

// netPanic carries a *NetError up through blocking operations that
// have no error return; WithTimeout recovers it into an error.
type netPanic struct{ err *NetError }

// FaultDecision is the fate the fault injector assigns to one
// transmission attempt.
type FaultDecision struct {
	// Drop loses this copy entirely.
	Drop bool
	// Duplicate delivers a second copy one extra flight time later.
	Duplicate bool
	// ExtraDelay adds jitter to the arrival time, which is what lets
	// later packets overtake earlier ones (reordering).
	ExtraDelay float64
	// CorruptBit flips the given payload bit in flight; -1 leaves the
	// payload intact.
	CorruptBit int
}

// FaultInjector decides the fate of remote transmissions.  Decide must
// be deterministic given its own state and arguments: the simulator
// calls it in a reproducible order, so a seeded implementation yields
// bit-identical runs.  attempt is 0 for the first copy of a packet and
// the retry number for retransmissions; acks are judged with attempt
// -1.
type FaultInjector interface {
	Decide(from, to, attempt, bytes int, now float64) FaultDecision
}

// Reliability configures the opt-in reliable transport.  The zero
// value picks sensible defaults for every field.
type Reliability struct {
	// RTO is the initial retransmission timeout in virtual seconds.
	// Zero derives a per-packet default from the machine's latency and
	// the packet's transmission time.
	RTO float64
	// Backoff multiplies the timeout after every retry (default 2).
	Backoff float64
	// MaxRetries bounds retransmissions per packet; when exceeded the
	// link is declared dead and receivers observe ErrPeerUnreachable
	// (default 16).
	MaxRetries int
}

// timerKind labels a virtual-time event.
type timerKind int

const (
	tDeliver timerKind = iota
	tRetransmit
	tAck
	tWake
	tMsg     // perfect-network delivery: the message lands at its arrival time
	tCrash   // kill a rank (crash plan)
	tDetect  // failure detector declares a crashed rank dead
	tRestart // relaunch a crashed rank
	tJoin    // launch a dormant rank (join plan)
)

// timer is one pending virtual-time event.  Ties on the virtual time
// break on (rank, seq): rank is the world rank that originated the
// event and seq its per-rank registration counter, so the order is a
// total order that does not depend on which shard (or the coordinator)
// registered the event — the invariant that makes N-shard runs
// bit-identical to one-shard ones.
type timer struct {
	at   float64
	rank int // originating world rank; canonical tiebreak
	seq  int // per-rank registration counter; canonical tiebreak
	kind timerKind

	pkt        *packet
	corruptBit int

	msg *message // tMsg
	dst int      // tMsg: destination world rank

	p   *Proc // tWake, tCrash, tDetect, tRestart, tJoin
	gen int

	free *timer // timerCache freelist link
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// timerCache recycles timer structs so the per-message delivery events
// of the perfect-network path add no steady-state allocations.  Each
// shard owns one (the coordinator recycles global timers into shard
// 0's, whose windows it runs); recycling across owners is harmless
// because timers are compared by value, never by identity.
type timerCache struct{ free *timer }

func (c *timerCache) get() *timer {
	tm := c.free
	if tm == nil {
		return &timer{}
	}
	c.free = tm.free
	*tm = timer{}
	return tm
}

func (c *timerCache) put(tm *timer) {
	*tm = timer{free: c.free}
	c.free = tm
}

// stampTimer assigns the canonical per-rank tie-break key.  tm.rank
// must already name the originating world rank.
func (w *World) stampTimer(tm *timer) {
	w.tseq[tm.rank]++
	tm.seq = w.tseq[tm.rank]
}

// addTimer registers a virtual-time event with the heap that may fire
// it (see shardedRun.route).
func (w *World) addTimer(tm *timer) {
	w.stampTimer(tm)
	w.sh.route(tm)
}

// fireTimer dispatches one due event and recycles the timer into c.
func (w *World) fireTimer(tm *timer, c *timerCache) {
	switch tm.kind {
	case tWake:
		w.fireWake(tm)
	case tMsg:
		w.fireMsg(tm)
	case tDeliver:
		w.net.fireDeliver(tm)
	case tRetransmit:
		w.net.fireRetransmit(tm)
	case tAck:
		w.net.fireAck(tm)
	case tCrash:
		w.fireCrash(tm)
	case tDetect:
		w.fireDetect(tm)
	case tRestart:
		w.fireRestart(tm)
	case tJoin:
		w.fireJoin(tm)
	}
	c.put(tm)
}

// fireMsg lands a perfect-network message in the destination process's
// queue at its arrival time.  Messages addressed to a crashed rank — or
// to an incarnation that was already replaced when they arrive — are
// dropped, mirroring the restart wiping its predecessor's queue.
func (w *World) fireMsg(tm *timer) {
	dst := w.procs[tm.dst]
	if cs := w.crash; cs != nil {
		if cs.dead[tm.dst] || tm.msg.sentAt < cs.restartPos[tm.dst] {
			tm.msg.releasePay()
			return
		}
	}
	dst.queue = append(dst.queue, tm.msg)
	if dst.state == stateBlocked && dst.wantsMsg(tm.msg) {
		w.wake(dst)
	}
}

// fireWake expires a blocking operation's deadline: if the process is
// still parked under the same deadline registration, it is woken with
// ErrTimeout.
func (w *World) fireWake(tm *timer) {
	p := tm.p
	if p.state != stateBlocked || p.deadlineGen != tm.gen || p.deadlineAt <= 0 {
		return
	}
	peer := -1
	if p.wantsAny == nil && p.wantSrc != AnySource {
		peer = p.wantSrc
	}
	w.stats.PerRank[p.worldRank].Timeouts++
	w.record(Event{Time: tm.at, Rank: p.worldRank, Kind: EvTimeout, Peer: peer})
	p.wakeErr = &NetError{Op: "wait", Rank: p.worldRank, Peer: peer, Err: ErrTimeout}
	if p.clock < tm.at {
		p.clock = tm.at // the process observed the deadline passing
	}
	w.wake(p)
}

// linkKey identifies an ordered (sender, receiver) world-rank pair.
type linkKey struct{ from, to int }

// packet is one transport-level message of the reliable (or faulted)
// network.  The sender retains it until acked, which is what makes
// retransmission allocation-free.  Zero-copy sends carry a refcounted
// payload (pay) instead of flat data; the reference discipline is:
//
//   - in reliable mode the packet itself holds one reference from send
//     until ack or abandonment (released exactly once via releaseRef),
//     so every retransmission reuses the same segments;
//   - every scheduled delivery timer holds one reference, released
//     when it fires (so a delivery racing an ack never reads recycled
//     storage);
//   - held (reassembly) entries and enqueued messages each hold their
//     own reference.
type packet struct {
	from, to int
	tag      int
	data     []byte
	pay      *bufpool.Payload
	xmit     float64
	seq      int    // per-link sequence number (reliable mode)
	sum      uint64 // payload checksum at send time (reliable mode)
	rto      float64
	retries  int
	acked    bool
	released bool // sender-side payload reference dropped
}

// size returns the packet's byte length regardless of representation.
func (pkt *packet) size() int {
	if pkt.pay != nil {
		return pkt.pay.Len()
	}
	return len(pkt.data)
}

// releaseRef drops the sender-side payload reference exactly once —
// on ack or abandonment, whichever comes first.
func (pkt *packet) releaseRef() {
	if pkt.pay != nil && !pkt.released {
		pkt.released = true
		pkt.pay.Release()
	}
}

// heldPacket is a verified in-flight payload waiting for the sequence
// gap below it to fill (receive-side reassembly).  It holds one
// payload reference, released when the entry drains or is wiped.
type heldPacket struct {
	tag  int
	data []byte
	pay  *bufpool.Payload
	xmit float64
}

// linkState is one ordered link's transport state; the sender-side
// fields and receiver-side fields live together keyed by the pair.
type linkState struct {
	nextSeq     int             // sender: next sequence number to assign
	inflight    map[int]*packet // sender: unacked packets
	nextDeliver int             // receiver: next sequence number to hand up
	held        map[int]*heldPacket
}

// netLayer is the imperfect-network model: it owns the per-link
// transport state and turns transmissions into virtual-time events.
type netLayer struct {
	w        *World
	inj      FaultInjector
	reliable bool

	// mu serializes shard-side entry points (send, NetPairStats): two
	// shards sending on different links concurrently would otherwise
	// race on the links map, the injector's internal state and the pair
	// counters.  Per-link behavior stays deterministic because each
	// directed link has a single sending rank, hence a single sending
	// shard.  Timer handlers never take it: in an N-shard run they only
	// run while every shard is quiesced at a window barrier, and a
	// one-shard run executes one operation at a time.
	mu sync.Mutex

	rto        float64
	backoff    float64
	maxRetries int

	links map[linkKey]*linkState
	dead  map[linkKey]bool
}

func newNetLayer(w *World, inj FaultInjector, rel *Reliability) *netLayer {
	n := &netLayer{
		w:     w,
		inj:   inj,
		links: make(map[linkKey]*linkState),
		dead:  make(map[linkKey]bool),
	}
	if rel != nil {
		n.reliable = true
		n.rto = rel.RTO
		n.backoff = rel.Backoff
		if n.backoff <= 1 {
			n.backoff = 2
		}
		n.maxRetries = rel.MaxRetries
		if n.maxRetries <= 0 {
			n.maxRetries = 16
		}
	}
	return n
}

// pair returns the directed link's network-fault counters.  These
// always live in the Stats.Pairs map: shard-side callers (send,
// transmit) hold n.mu, and an N-shard run's coordinator only touches
// the map while every shard is quiesced at a window barrier, so the
// counters a mid-run NetPairStats reader sees are exactly the
// one-shard run's values for the coordinator-fired kinds
// (retransmits, duplicate discards).
func (n *netLayer) pair(from, to int) *PairStats {
	return n.w.stats.pair(from, to)
}

func (n *netLayer) link(k linkKey) *linkState {
	ls := n.links[k]
	if ls == nil {
		ls = &linkState{inflight: make(map[int]*packet), held: make(map[int]*heldPacket)}
		n.links[k] = ls
	}
	return ls
}

// rtoFor derives a packet's initial retransmission timeout: the
// configured RTO, or roughly one round trip plus slack so an
// undisturbed packet is never retransmitted.
func (n *netLayer) rtoFor(xmit float64) float64 {
	if n.rto > 0 {
		return n.rto
	}
	return 3*(n.w.machine.Latency+xmit) + 1e-3
}

// send accepts a remote transmission from a process.  data (if used)
// is already the sender's private copy; a payload is carried by
// reference.  xmit and depart come from the sender's link reservation,
// so the send-side cost model is identical to the perfect-network
// path.
func (n *netLayer) send(from, to, tag int, data []byte, pay *bufpool.Payload, xmit, depart float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pkt := &packet{from: from, to: to, tag: tag, data: data, pay: pay, xmit: xmit}
	key := linkKey{from, to}
	if n.reliable {
		if n.dead[key] {
			// The transport already declared this peer unreachable;
			// further packets are dropped at the source (no reference
			// was taken, so there is nothing to release).
			n.w.stats.PerRank[from].FailedSends++
			n.w.record(Event{Time: depart, Rank: from, Kind: EvPeerFail, Peer: to, Bytes: pkt.size()})
			return
		}
		ls := n.link(key)
		pkt.seq = ls.nextSeq
		ls.nextSeq++
		if pay != nil {
			pay.Retain() // the packet's reference, held until ack/abandon
			pkt.sum = checksum64Pay(pay)
		} else {
			pkt.sum = checksum64(data)
		}
		pkt.rto = n.rtoFor(xmit)
		ls.inflight[pkt.seq] = pkt
	}
	n.transmit(pkt, depart, 0)
}

// transmit launches one copy of a packet at virtual time depart,
// consulting the fault injector for its fate.  In reliable mode the
// retransmission timer is armed regardless of the copy's fate.
func (n *netLayer) transmit(pkt *packet, depart float64, attempt int) {
	w := n.w
	d := FaultDecision{CorruptBit: -1}
	if n.inj != nil {
		d = n.inj.Decide(pkt.from, pkt.to, attempt, pkt.size(), depart)
	}
	if n.reliable {
		w.addTimer(&timer{at: depart + pkt.rto, rank: pkt.from, kind: tRetransmit, pkt: pkt})
	}
	if d.Drop {
		w.stats.PerRank[pkt.from].Drops++
		n.pair(pkt.from, pkt.to).Drops++
		w.record(Event{Time: depart, Rank: pkt.from, Kind: EvDrop, Peer: pkt.to, Bytes: pkt.size()})
		return
	}
	arrival := depart + pkt.xmit + w.machine.Latency + d.ExtraDelay
	if pkt.pay != nil {
		pkt.pay.Retain() // the delivery timer's reference
	}
	w.addTimer(&timer{at: arrival, rank: pkt.from, kind: tDeliver, pkt: pkt, corruptBit: d.CorruptBit})
	if d.Duplicate {
		if pkt.pay != nil {
			pkt.pay.Retain()
		}
		w.addTimer(&timer{at: arrival + w.machine.Latency + pkt.xmit, rank: pkt.from, kind: tDeliver, pkt: pkt, corruptBit: -1})
	}
}

// fireDeliver lands one copy of a packet at the receiver's transport.
// The timer holds one payload reference (taken in transmit), dropped on
// every exit path; downstream holders (reassembly entries, enqueued
// messages) take their own.
func (n *netLayer) fireDeliver(tm *timer) {
	pkt := tm.pkt
	if pkt.pay != nil {
		defer pkt.pay.Release() // the delivery timer's reference
	}
	w := n.w
	if w.crash != nil && w.crash.dead[pkt.to] {
		// The destination host is down: the wire delivers into the void,
		// with no ack — the sender's retransmission timer (if any) keeps
		// trying until the rank restarts or the link is abandoned.
		return
	}
	data, pay := pkt.data, pkt.pay
	if tm.corruptBit >= 0 && pkt.size() > 0 {
		// Corruption flattens the copy it flips a bit in; the packet's
		// own bytes stay pristine for retransmission.
		var c []byte
		if pay != nil {
			c = pay.Flatten()
		} else {
			c = append([]byte(nil), data...)
		}
		bit := tm.corruptBit % (len(c) * 8)
		c[bit/8] ^= 1 << (bit % 8)
		data, pay = c, nil
	}
	if !n.reliable {
		// Raw faulted delivery: whatever survived the wire, in whatever
		// order it arrived.
		n.enqueue(pkt.from, pkt.to, pkt.tag, data, pay, pkt.xmit, tm.at)
		return
	}
	if wireSum(data, pay) != pkt.sum {
		w.stats.PerRank[pkt.to].CorruptDiscarded++
		w.record(Event{Time: tm.at, Rank: pkt.to, Kind: EvCorruptDiscard, Peer: pkt.from, Bytes: wireLen(data, pay)})
		return // no ack: the sender's retransmission timer recovers
	}
	ls := n.link(linkKey{pkt.from, pkt.to})
	if pkt.seq < ls.nextDeliver || ls.held[pkt.seq] != nil {
		w.stats.PerRank[pkt.to].DupsDiscarded++
		n.pair(pkt.from, pkt.to).DupsDiscarded++
		w.record(Event{Time: tm.at, Rank: pkt.to, Kind: EvDupDiscard, Peer: pkt.from, Bytes: wireLen(data, pay)})
		n.sendAck(pkt, tm.at) // the previous ack may have been lost; re-ack
		return
	}
	if pay != nil {
		pay.Retain() // the reassembly entry's reference
	}
	ls.held[pkt.seq] = &heldPacket{tag: pkt.tag, data: data, pay: pay, xmit: pkt.xmit}
	for {
		h := ls.held[ls.nextDeliver]
		if h == nil {
			break
		}
		delete(ls.held, ls.nextDeliver)
		ls.nextDeliver++
		n.enqueue(pkt.from, pkt.to, h.tag, h.data, h.pay, h.xmit, tm.at)
		if h.pay != nil {
			h.pay.Release() // the reassembly entry's reference
		}
	}
	n.sendAck(pkt, tm.at)
}

// enqueue hands a delivered payload to the destination process's
// message queue, waking it if it is parked on a matching receive.  The
// queued message takes its own payload reference.
func (n *netLayer) enqueue(from, to, tag int, data []byte, pay *bufpool.Payload, xmit, arrival float64) {
	dst := n.w.procs[to]
	msg := dst.getMsg()
	msg.src, msg.tag, msg.arrival, msg.xmit = from, tag, arrival, xmit
	if pay != nil {
		pay.Retain()
		msg.pay = pay
	} else {
		msg.data = data
	}
	dst.queue = append(dst.queue, msg)
	if dst.state == stateBlocked && dst.wantsMsg(msg) {
		n.w.wake(dst)
	}
}

// sendAck launches the acknowledgement for a verified packet; acks
// cross the same faulty network (they can be lost or delayed, but are
// never retransmitted — a lost ack is repaired by the sender's
// retransmission and the receiver's re-ack).
func (n *netLayer) sendAck(pkt *packet, now float64) {
	delay := 0.0
	if n.inj != nil {
		d := n.inj.Decide(pkt.to, pkt.from, -1, 0, now)
		if d.Drop {
			n.w.stats.PerRank[pkt.to].Drops++
			n.w.record(Event{Time: now, Rank: pkt.to, Kind: EvDrop, Peer: pkt.from})
			return
		}
		delay = d.ExtraDelay
	}
	n.w.addTimer(&timer{at: now + n.w.machine.Latency + delay, rank: pkt.to, kind: tAck, pkt: pkt})
}

// fireAck completes a packet at the sender's transport.
func (n *netLayer) fireAck(tm *timer) {
	pkt := tm.pkt
	if pkt.acked {
		return
	}
	pkt.acked = true
	ls := n.link(linkKey{pkt.from, pkt.to})
	delete(ls.inflight, pkt.seq)
	pkt.releaseRef()
	n.w.record(Event{Time: tm.at, Rank: pkt.from, Kind: EvAck, Peer: pkt.to})
}

// fireRetransmit re-launches an unacked packet, or abandons the link
// once the retry budget is exhausted.
func (n *netLayer) fireRetransmit(tm *timer) {
	pkt := tm.pkt
	if pkt.acked {
		return
	}
	w := n.w
	if w.deadDetected(pkt.to, tm.at) {
		// The failure detector already declared the destination dead;
		// retrying is pointless, so the link is abandoned immediately.
		n.abandon(pkt, tm.at)
		return
	}
	if pkt.retries >= n.maxRetries {
		n.abandon(pkt, tm.at)
		return
	}
	pkt.retries++
	pkt.rto *= n.backoff
	w.stats.PerRank[pkt.from].Retransmits++
	n.pair(pkt.from, pkt.to).Retransmits++
	w.record(Event{Time: tm.at, Rank: pkt.from, Kind: EvRetransmit, Peer: pkt.to, Bytes: pkt.size()})
	// The retransmission occupies the sender node's outbound link like
	// any other transmission.
	node := w.procs[pkt.from].node
	depart := tm.at
	if node.outFreeAt > depart {
		depart = node.outFreeAt
	}
	node.outFreeAt = depart + pkt.xmit
	n.transmit(pkt, depart, pkt.retries)
}

// abandon declares a link dead after the retransmission budget is
// spent: pending packets on it will never be delivered, and receivers
// blocked on (or later blocking on) the sender observe
// ErrPeerUnreachable instead of hanging.
func (n *netLayer) abandon(pkt *packet, now float64) {
	key := linkKey{pkt.from, pkt.to}
	ls := n.link(key)
	delete(ls.inflight, pkt.seq)
	pkt.releaseRef()
	n.dead[key] = true
	w := n.w
	w.stats.PerRank[pkt.from].FailedSends++
	w.record(Event{Time: now, Rank: pkt.from, Kind: EvPeerFail, Peer: pkt.to, Bytes: pkt.size()})
	dst := w.procs[pkt.to]
	if dst.state == stateBlocked && dst.wantsMsg(&message{src: pkt.from, tag: pkt.tag}) {
		dst.wakeErr = &NetError{Op: "recv", Rank: pkt.to, Peer: pkt.from, Err: ErrPeerUnreachable}
		if dst.clock < now {
			dst.clock = now
		}
		w.wake(dst)
	}
}

// deadFrom reports whether the reliable transport has abandoned the
// (from -> to) link.
func (n *netLayer) deadFrom(from, to int) bool {
	return n.reliable && n.dead[linkKey{from, to}]
}

// FNV-1a parameters for the transport's corruption detector.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// checksumAdd folds data into a running FNV-1a hash.
func checksumAdd(h uint64, data []byte) uint64 {
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// checksum64 is FNV-1a over a flat payload.
func checksum64(data []byte) uint64 {
	return checksumAdd(fnvOffset64, data)
}

// checksum64Pay is FNV-1a over a scatter-gather payload, computed
// segment by segment without flattening; it equals checksum64 over the
// concatenated bytes.
func checksum64Pay(pay *bufpool.Payload) uint64 {
	h := fnvOffset64
	for _, s := range pay.Segments() {
		h = checksumAdd(h, s)
	}
	return h
}

// wireSum hashes whichever representation a delivery carries.
func wireSum(data []byte, pay *bufpool.Payload) uint64 {
	if pay != nil {
		return checksum64Pay(pay)
	}
	return checksum64(data)
}

// wireLen is the byte length of whichever representation a delivery
// carries.
func wireLen(data []byte, pay *bufpool.Payload) int {
	if pay != nil {
		return pay.Len()
	}
	return len(data)
}
