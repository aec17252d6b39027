package mpsim

import (
	"fmt"

	"metachaos/internal/bufpool"
)

// AnySource and AnyTag are wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is one in-flight point-to-point message.  Its contents are
// either a flat private copy (data) or a refcounted scatter-gather
// payload (pay) when the sender used the zero-copy path; exactly one
// of the two is set for a non-empty message.  A payload message holds
// one reference, released when the message is claimed (ownership
// transfers to the receiver) or dropped.
type message struct {
	src     int // world rank of sender
	tag     int
	data    []byte
	pay     *bufpool.Payload
	arrival float64 // virtual time the last byte clears the sender side + latency
	xmit    float64 // wire occupancy, for receiver-side link reservation
	sentAt  float64 // sender's clock at the send; restart-wipe boundary
	local   bool    // self-send: skips link reservations
}

// size returns the message's byte length regardless of representation.
func (m *message) size() int {
	if m.pay != nil {
		return m.pay.Len()
	}
	return len(m.data)
}

// releasePay drops the message's payload reference, if any, for paths
// that discard a message without claiming it (crash wipes, stale
// deliveries).
func (m *message) releasePay() {
	if m.pay != nil {
		m.pay.Release()
		m.pay = nil
	}
}

// maxFreeMsgs caps a process's message-struct freelist.
const maxFreeMsgs = 256

// Proc is one simulated process.  All of a process's interaction with
// the simulated machine — messaging, collectives, clock charges — goes
// through its Proc, exactly as an MPI rank works through its
// communicator.  A Proc is only valid inside the Body function it was
// passed to and must not be shared across goroutines.
type Proc struct {
	world     *World
	worldRank int
	progIndex int
	progName  string
	progRanks []int
	node      *node

	worldComm *Comm
	progComm  *Comm

	clock      float64
	finalClock float64

	resume chan struct{}
	// sched is where the process reports scheduling events: its
	// shard's channel.
	sched chan schedEvent
	state procState
	// heapIdx is the process's position in its run queue, -1 while not
	// queued; maintained by procHeap so the scheduler can remove a
	// killed process without draining the heap.
	heapIdx int

	queue   []*message
	wantSrc int
	wantTag int
	// wantsAny is set instead of wantSrc/wantTag while the process is
	// blocked in recvAny (Waitany over several pending receives).
	wantsAny []recvWant

	// Waitany scratch, reused across calls.
	wantBuf []recvWant
	wantIdx []int

	// msgFree recycles message structs: sends pop from the sender's
	// list, claims push to the receiver's.  Symmetric steady-state
	// traffic (a move schedule) therefore sends without allocating.
	// Each list is touched only under its owner's scheduling domain.
	msgFree []*message
	// reqFree recycles Request structs (Irecv pops, Request.Free
	// pushes); a request always returns to the process it was posted
	// on.
	reqFree []*Request

	// Active WithTimeout deadline (virtual time; 0 = none) and the
	// registration id its timer must match to fire.
	deadlineAt  float64
	deadlineGen int
	// wakeErr is set by the scheduler (deadline expiry, peer abandoned)
	// before waking a blocked process; the blocking operation converts
	// it into a netPanic for WithTimeout to recover.
	wakeErr *NetError

	// Crash-fault state (see crash.go).  killed marks a process claimed
	// by a crash fault; it unwinds at its next scheduling point.
	// incarnation counts restarts.
	killed      bool
	incarnation int

	// shard is the scheduler shard owning this process (see shard.go).
	shard *shard
}

// recvWant is one (world-rank source, wire tag) matcher of a blocked
// multi-receive.
type recvWant struct{ src, tag int }

// wantsMsg reports whether a blocked process would accept msg.
func (p *Proc) wantsMsg(m *message) bool {
	if p.wantsAny != nil {
		for _, w := range p.wantsAny {
			if matches(m, w.src, w.tag) {
				return true
			}
		}
		return false
	}
	return matches(m, p.wantSrc, p.wantTag)
}

// WorldRank returns the process's rank in the whole simulated machine,
// across all programs.
func (p *Proc) WorldRank() int { return p.worldRank }

// Rank returns the process's rank within its own program.
func (p *Proc) Rank() int { return p.progComm.Rank() }

// Size returns the number of processes in the process's own program.
func (p *Proc) Size() int { return len(p.progRanks) }

// WorldSize returns the total number of simulated processes.
func (p *Proc) WorldSize() int { return len(p.world.procs) }

// Program returns the name of the program this process belongs to.
func (p *Proc) Program() string { return p.progName }

// Node returns the identifier of the node hosting this process.
func (p *Proc) Node() int { return p.node.id }

// Comm returns the communicator spanning the process's own program.
func (p *Proc) Comm() *Comm { return p.progComm }

// World returns the communicator spanning every process of every
// program, used for inter-program communication.
func (p *Proc) World() *Comm { return p.worldComm }

// Machine returns the cost model of the simulated machine.
func (p *Proc) Machine() *Machine { return p.world.machine }

// Programs returns the names of every program in the world, in
// configuration order.
func (p *Proc) Programs() []string {
	return append([]string(nil), p.world.progNames...)
}

// ProgramRanks returns the world ranks of the named program's
// processes in program-rank order, or nil if no such program exists.
// The world layout is static, so this models each program knowing
// where its peers run (the paper's coupled programs are launched with
// knowledge of each other's hosts).
func (p *Proc) ProgramRanks(name string) []int {
	ranks, ok := p.world.progRanks[name]
	if !ok {
		return nil
	}
	return append([]int(nil), ranks...)
}

// Clock returns the process's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// LocalStats returns a copy of the calling process's traffic counters
// so far, letting harness code attribute messages and bytes to
// individual phases of a run.
func (p *Proc) LocalStats() RankStats { return p.world.stats.PerRank[p.worldRank] }

// Charge advances the process's virtual clock by d seconds of local
// computation.  Negative charges are rejected.
func (p *Proc) Charge(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("mpsim: rank %d charged negative time %g", p.worldRank, d))
	}
	p.clock += d
}

// ChargeFlops charges n floating point operations.
func (p *Proc) ChargeFlops(n int) { p.Charge(float64(n) * p.world.machine.FlopTime) }

// ChargeMemOps charges n irregular memory accesses.
func (p *Proc) ChargeMemOps(n int) { p.Charge(float64(n) * p.world.machine.MemOpTime) }

// ChargeDeref charges n distribution-dereference steps.
func (p *Proc) ChargeDeref(n int) { p.Charge(float64(n) * p.world.machine.DerefTime) }

// ChargeSectionOps charges n regular-section schedule-arithmetic steps.
func (p *Proc) ChargeSectionOps(n int) { p.Charge(float64(n) * p.world.machine.SectionOpTime) }

// ChargeCopy charges a local memory copy of n bytes.
func (p *Proc) ChargeCopy(bytes int) {
	p.Charge(float64(bytes) / p.world.machine.LocalCopyBandwidth)
}

// getMsg pops a recycled message struct, refilling from the world's
// shared overflow pool before allocating.
func (p *Proc) getMsg() *message {
	if n := len(p.msgFree); n > 0 {
		m := p.msgFree[n-1]
		p.msgFree = p.msgFree[:n-1]
		return m
	}
	if m, ok := p.world.msgPool.Get().(*message); ok {
		return m
	}
	return &message{}
}

// putMsg recycles a claimed message struct onto this process's
// freelist, spilling to the world pool when full so structs flow back
// to senders under one-directional traffic.  The caller must have
// extracted the contents first.
func (p *Proc) putMsg(m *message) {
	*m = message{}
	if len(p.msgFree) >= maxFreeMsgs {
		p.world.msgPool.Put(m)
		return
	}
	p.msgFree = append(p.msgFree, m)
}

// BufPool returns the world's shared buffer pool, the allocator behind
// the zero-copy payload path.
func (p *Proc) BufPool() *bufpool.Pool { return p.world.pool }

// Send transmits data to the process with the given world rank.  The
// send is buffered (it never blocks waiting for the receiver) and the
// data slice is copied, so the caller may reuse it immediately.  Tags
// must be non-negative; negative tags are reserved for collectives.
func (p *Proc) Send(to, tag int, data []byte) {
	if tag < 0 {
		panic(fmt.Sprintf("mpsim: rank %d: user tags must be >= 0, got %d", p.worldRank, tag))
	}
	p.send(to, tag, data)
}

func (p *Proc) send(to, tag int, data []byte) { p.sendImpl(to, tag, data, nil) }

// sendPayload is the zero-copy send: the payload's bytes are NOT
// copied — the transport takes its own reference and reads the
// segments until every delivered copy is consumed.  The caller keeps
// its reference and must not mutate storage the payload views until it
// has either observed the payload fully released or materialized it.
func (p *Proc) sendPayload(to, tag int, pay *bufpool.Payload) { p.sendImpl(to, tag, nil, pay) }

// sendImpl is the shared send path.  Exactly one of data (flat,
// copied) and pay (scatter-gather, by reference) is used.  The
// virtual-time cost model depends only on the byte length, so the two
// representations are clock-identical.
func (p *Proc) sendImpl(to, tag int, data []byte, pay *bufpool.Payload) {
	size := len(data)
	if pay != nil {
		size = pay.Len()
	}
	if to < 0 || to >= len(p.world.procs) {
		panic(fmt.Sprintf("mpsim: rank %d sends to invalid rank %d", p.worldRank, to))
	}
	if p.world.dormant(to) {
		// The destination has not joined the world yet; applications
		// coordinate growth with AbsentRanks/LiveWorld, so a send here
		// is a membership bug, caught deterministically.
		panic(fmt.Sprintf("mpsim: rank %d sends to rank %d before it joined the world", p.worldRank, to))
	}
	if p.world.crash != nil {
		p.checkKilled()
		if p.world.deadDetected(to, p.clock) {
			// Post-detection sends fail fast instead of vanishing.
			p.world.stats.PerRank[p.worldRank].FailedSends++
			p.world.record(Event{Time: p.clock, Rank: p.worldRank, Kind: EvPeerFail, Peer: to, Bytes: size})
			panic(netPanic{&NetError{Op: "send", Rank: p.worldRank, Peer: to, Err: ErrPeerDead}})
		}
	}
	sp := p.beginSpan("send")
	sp.SetPeer(to).SetBytes(size)
	m := p.world.machine
	dst := p.world.procs[to]
	if pay != nil && dst.shard != p.shard && !pay.Materialized() {
		// The destination shard reads the payload concurrently with this
		// shard's later instructions; sever the views of live storage
		// now.  Same-shard deliveries stay zero-copy — the executor
		// settles those at its own exit.
		pay.Materialize()
	}

	remote := false
	var arrival, msgXmit float64
	localMsg := false
	if to == p.worldRank {
		p.clock += float64(size) / m.LocalCopyBandwidth
		arrival = p.clock
		localMsg = true
	} else {
		// CPU: per-message overhead plus packing the payload.
		p.clock += m.SendOverhead + float64(size)*m.PerByteCPU
		xmit := m.transmitTime(size)
		start := p.clock
		if dst.node != p.node && p.node.outFreeAt > start {
			start = p.node.outFreeAt
		}
		if dst.node != p.node {
			p.node.outFreeAt = start + xmit
			if p.world.net != nil {
				// Imperfect network: the send-side cost model above is
				// unchanged, but delivery becomes a virtual-time event
				// whose fate the fault injector decides.
				p.recordSend(to, size)
				var buf []byte
				if pay == nil {
					buf = make([]byte, len(data))
					copy(buf, data)
				}
				p.world.net.send(p.worldRank, to, tag, buf, pay, xmit, start)
				sp.End(p.clock)
				p.yield()
				return
			}
			arrival = start + xmit + m.Latency
			msgXmit = xmit
			remote = dst.shard != p.shard
		} else {
			// Same node, different process: shared-memory transfer.
			arrival = start + float64(size)/m.LocalCopyBandwidth
			localMsg = true
		}
	}

	msg := p.getMsg()
	msg.src, msg.tag = p.worldRank, tag
	msg.arrival, msg.xmit, msg.local = arrival, msgXmit, localMsg
	if pay != nil {
		pay.Retain()
		msg.pay = pay
	} else {
		buf := make([]byte, len(data))
		copy(buf, data)
		msg.data = buf
	}

	p.recordSend(to, size)
	sp.End(p.clock)
	if remote {
		// Cross-shard delivery is a virtual-time event at the message's
		// arrival: the destination shard observes it at a clock the
		// LogGP latency floor bounds away from now, which is what lets
		// shards run a lookahead window in parallel.  Every other path
		// — self, same-node and intra-shard sends, which covers every
		// send of a one-shard run — bypasses the mailbox and enqueues
		// immediately.
		msg.sentAt = p.clock
		tm := p.tcache().get()
		tm.at, tm.rank, tm.kind, tm.msg, tm.dst = msg.arrival, p.worldRank, tMsg, msg, to
		p.world.addTimer(tm)
	} else {
		dst.queue = append(dst.queue, msg)
		if dst.state == stateBlocked && dst.wantsMsg(msg) {
			p.world.wake(dst)
		}
	}
	p.yield()
}

// recordSend charges the send to the sender's counters and trace.
func (p *Proc) recordSend(to, bytes int) {
	st := &p.world.stats
	st.PerRank[p.worldRank].MsgsSent++
	st.PerRank[p.worldRank].BytesSent += int64(bytes)
	p.world.recordPairFor(p, to, bytes)
	p.world.record(Event{Time: p.clock, Rank: p.worldRank, Kind: EvSend, Peer: to, Bytes: bytes})
}

// Recv blocks until a message matching (from, tag) is available and
// returns its payload and actual source rank.  from may be AnySource and
// tag may be AnyTag.  Messages from the same source with the same tag
// are received in the order they were sent.
func (p *Proc) Recv(from, tag int) ([]byte, int) {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("mpsim: rank %d: user tags must be >= 0, got %d", p.worldRank, tag))
	}
	return p.recv(from, tag)
}

func (p *Proc) recv(from, tag int) ([]byte, int) {
	data, pay, src := p.recvMsg(from, tag)
	if pay != nil {
		data = pay.Flatten()
		pay.Release()
	}
	return data, src
}

// recvMsg is recv returning the claimed message's raw contents: flat
// data, or a payload reference the caller now owns (exactly one is
// non-nil for a non-empty message).
func (p *Proc) recvMsg(from, tag int) ([]byte, *bufpool.Payload, int) {
	for {
		p.checkKilled()
		for i, msg := range p.queue {
			if !matches(msg, from, tag) {
				continue
			}
			return p.claim(i)
		}
		p.checkBeforeBlock(from, nil)
		p.wantSrc, p.wantTag = from, tag
		p.state = stateBlocked
		p.sched <- schedEvent{p: p}
		<-p.resume
		p.checkWakeErr()
	}
}

// claim removes queue[i], applies receive-side delivery costs,
// extracts the contents (transferring the payload reference, if any,
// to the caller), and recycles the message struct.
func (p *Proc) claim(i int) ([]byte, *bufpool.Payload, int) {
	msg := p.queue[i]
	p.queue = append(p.queue[:i], p.queue[i+1:]...)
	p.deliver(msg)
	data, pay, src := msg.data, msg.pay, msg.src
	msg.pay = nil
	p.putMsg(msg)
	return data, pay, src
}

// recvAny blocks until a message matching any entry of wants is
// available, claims the earliest-arriving match, and returns the index
// of the matched want plus the payload and source world rank.  Among
// equal arrival times the earliest-queued message wins, preserving
// per-(source, tag) FIFO order; claiming in arrival order is what lets
// an overlapped executor unpack lanes as they land instead of idling
// on a fixed peer order.
func (p *Proc) recvAny(wants []recvWant) (int, []byte, *bufpool.Payload, int) {
	for {
		p.checkKilled()
		best, bestWant := -1, -1
		for i, msg := range p.queue {
			wi := -1
			for j, w := range wants {
				if matches(msg, w.src, w.tag) {
					wi = j
					break
				}
			}
			if wi < 0 {
				continue
			}
			if best < 0 || msg.arrival < p.queue[best].arrival {
				best, bestWant = i, wi
			}
		}
		if best >= 0 {
			data, pay, src := p.claim(best)
			return bestWant, data, pay, src
		}
		p.checkBeforeBlock(AnySource, wants)
		p.wantsAny = wants
		p.state = stateBlocked
		p.sched <- schedEvent{p: p}
		<-p.resume
		p.wantsAny = nil
		p.checkWakeErr()
	}
}

// checkWakeErr converts a scheduler-posted failure (deadline expiry,
// abandoned peer) into a netPanic after the process is resumed.
func (p *Proc) checkWakeErr() {
	if p.wakeErr == nil {
		return
	}
	err := p.wakeErr
	p.wakeErr = nil
	panic(netPanic{err})
}

// checkBeforeBlock fails fast instead of parking when the blocking
// receive can already be proven hopeless or overdue: the deadline has
// passed, or the reliable transport has abandoned every link the
// receive could complete from.  from is the single wanted source
// (AnySource when wants is used instead).
func (p *Proc) checkBeforeBlock(from int, wants []recvWant) {
	if p.deadlineAt > 0 && p.clock >= p.deadlineAt {
		w := p.world
		w.stats.PerRank[p.worldRank].Timeouts++
		w.record(Event{Time: p.clock, Rank: p.worldRank, Kind: EvTimeout, Peer: -1})
		panic(netPanic{&NetError{Op: "wait", Rank: p.worldRank, Peer: -1, Err: ErrTimeout}})
	}
	if p.world.crash != nil {
		// A receive bound entirely to detected-dead ranks can never
		// complete; fail fast with ErrPeerDead.
		if wants == nil {
			if from != AnySource && p.world.deadDetected(from, p.clock) {
				panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: from, Err: ErrPeerDead}})
			}
		} else if peer, hopeless := p.world.hopelessWants(wants, AnySource, p.clock); hopeless {
			panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: peer, Err: ErrPeerDead}})
		}
	}
	if p.world.net == nil {
		return
	}
	if wants == nil {
		if from != AnySource && p.world.net.deadFrom(from, p.worldRank) {
			panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: from, Err: ErrPeerUnreachable}})
		}
		return
	}
	// A multi-receive is hopeless only if every wanted source is a
	// specific, abandoned peer.
	deadPeer := -1
	for _, w := range wants {
		if w.src == AnySource || !p.world.net.deadFrom(w.src, p.worldRank) {
			return
		}
		deadPeer = w.src
	}
	if deadPeer >= 0 {
		panic(netPanic{&NetError{Op: "recv", Rank: p.worldRank, Peer: deadPeer, Err: ErrPeerUnreachable}})
	}
}

// WithTimeout runs f under a virtual-time deadline d seconds from now.
// If a blocking operation inside f (Recv, Wait, Waitany, collectives)
// is still parked when the deadline passes, it aborts and WithTimeout
// returns a *NetError wrapping ErrTimeout; if the reliable transport
// declared a needed peer unreachable, the error wraps
// ErrPeerUnreachable.  d <= 0 sets no deadline but still converts
// transport failures into errors.  Nested calls are bounded by the
// tightest enclosing deadline.  After an error the aborted operation
// is not retried — the caller decides how to degrade.
func (p *Proc) WithTimeout(d float64, f func()) (err error) {
	prevAt, prevGen := p.deadlineAt, p.deadlineGen
	spanDepth := p.world.obs.Depth(p.worldRank)
	defer func() {
		p.deadlineAt, p.deadlineGen = prevAt, prevGen
		if r := recover(); r != nil {
			np, ok := r.(netPanic)
			if !ok {
				panic(r)
			}
			// The aborted operation cannot end the spans it opened;
			// close them at the abandonment clock so the timeline
			// stays well-nested.
			p.world.obs.Unwind(p.worldRank, spanDepth, p.clock)
			err = np.err
		}
	}()
	if d > 0 {
		at := p.clock + d
		if prevAt > 0 && prevAt < at {
			at = prevAt
		}
		tm := p.tcache().get()
		tm.at, tm.rank, tm.kind, tm.p = at, p.worldRank, tWake, p
		p.world.addTimer(tm)
		tm.gen = tm.seq // registration id: globally unique, never reused
		p.deadlineAt, p.deadlineGen = at, tm.seq
	}
	f()
	return nil
}

// ReliableTransport reports whether this run's network uses the
// reliable transport (Config.Reliable), which is what makes per-peer
// checksums and retransmit accounting meaningful to higher layers.
func (p *Proc) ReliableTransport() bool {
	return p.world.net != nil && p.world.net.reliable
}

// NetPairStats returns a copy of the directed (from -> to) pair
// counters accumulated so far, letting higher layers snapshot per-peer
// retransmit and duplicate counts around a data move.
func (p *Proc) NetPairStats(from, to int) PairStats {
	w := p.world
	var out PairStats
	if n := w.net; n != nil {
		// The transport counters live in Stats.Pairs; shard-side
		// writers (send-path drops) hold mu, an N-shard run's
		// coordinator writes only while shards are quiesced, and the
		// window bound never outruns a pending transport event — so a
		// mid-run read sees exactly the one-shard values.
		n.mu.Lock()
		if ps := w.stats.Pairs[PairKey{From: from, To: to}]; ps != nil {
			out = *ps
		}
		n.mu.Unlock()
	}
	// Payload Msgs/Bytes live in the sending rank's shard; only a
	// same-shard read is race-free (and mid-window cross-shard values
	// would not match a one-shard run anyway).  Mid-run consumers (move
	// recovery accounting) diff only the transport counters above;
	// full pair totals are merged into Stats.Pairs when the run
	// completes.
	if s := w.procs[from].shard; s == p.shard {
		if ps := s.pairs[PairKey{From: from, To: to}]; ps != nil {
			out.Msgs, out.Bytes = ps.Msgs, ps.Bytes
		}
	}
	return out
}

// deliver applies receive-side costs: inbound link occupancy on the
// receiver's node, the receive overhead, and payload unpacking.  Its
// span starts on the pre-delivery clock, so any jump to the message's
// arrival time (the receiver's wait) is inside the span.
func (p *Proc) deliver(msg *message) {
	size := msg.size()
	sp := p.beginSpan("recv")
	sp.SetPeer(msg.src).SetBytes(size)
	m := p.world.machine
	arrival := msg.arrival
	if !msg.local {
		start := arrival - msg.xmit
		if p.node.inFreeAt > start {
			start = p.node.inFreeAt
		}
		arrival = start + msg.xmit
		p.node.inFreeAt = arrival
	}
	if arrival > p.clock {
		p.clock = arrival
	}
	if !msg.local {
		p.clock += m.RecvOverhead + float64(size)*m.PerByteCPU
	}
	st := &p.world.stats
	st.PerRank[p.worldRank].MsgsRecv++
	st.PerRank[p.worldRank].BytesRecv += int64(size)
	p.world.record(Event{Time: p.clock, Rank: p.worldRank, Kind: EvRecv, Peer: msg.src, Bytes: size})
	sp.End(p.clock)
}

// yield hands control back to the scheduler with the process still
// runnable, letting lower-clock processes run first.
func (p *Proc) yield() {
	p.state = stateRunnable
	p.sched <- schedEvent{p: p}
	<-p.resume
	p.checkKilled()
}

// tcache returns the timer freelist of the shard that owns this
// process.
func (p *Proc) tcache() *timerCache { return &p.shard.tc }

func matches(m *message, src, tag int) bool {
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}
