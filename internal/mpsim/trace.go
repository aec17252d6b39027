package mpsim

import (
	"fmt"
	"sort"
	"strings"
)

// Event tracing: when enabled on a Config, every send and receive is
// recorded with its virtual timestamp.  Runs are deterministic, so a
// trace is a reproducible artifact — useful for inspecting schedule
// structure and for regression-testing communication patterns.

// EventKind labels a trace event.
type EventKind int

const (
	// EvSend is recorded when a process finishes handing a message to
	// the network (or to itself).
	EvSend EventKind = iota
	// EvRecv is recorded when a process consumes a message.
	EvRecv
	// EvDrop is recorded when fault injection loses a transmission (the
	// acting rank is the sender; for a lost ack, the receiver).
	EvDrop
	// EvRetransmit is recorded when the reliable transport re-launches
	// an unacked packet.
	EvRetransmit
	// EvDupDiscard is recorded when the receiver's transport discards a
	// duplicate delivery.
	EvDupDiscard
	// EvCorruptDiscard is recorded when the receiver's transport
	// discards a delivery whose checksum does not match.
	EvCorruptDiscard
	// EvAck is recorded at the sender when a packet is acknowledged.
	EvAck
	// EvTimeout is recorded when a blocking operation's virtual-time
	// deadline expires.
	EvTimeout
	// EvPeerFail is recorded when the reliable transport abandons a
	// peer after exhausting its retransmission budget.
	EvPeerFail
	// EvCrash is recorded when a crash fault kills a rank.
	EvCrash
	// EvCrashDetect is recorded when the failure detector declares a
	// crashed rank dead (Peer is the dead rank).
	EvCrashDetect
	// EvRestart is recorded when a crashed rank restarts with a fresh
	// incarnation.
	EvRestart
	// EvJoin is recorded when a dormant rank joins the running world
	// (elastic scale-out).
	EvJoin
)

func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvDrop:
		return "drop"
	case EvRetransmit:
		return "rexmit"
	case EvDupDiscard:
		return "dupdisc"
	case EvCorruptDiscard:
		return "corrupt"
	case EvAck:
		return "ack"
	case EvTimeout:
		return "timeout"
	case EvPeerFail:
		return "peerfail"
	case EvCrash:
		return "crash"
	case EvCrashDetect:
		return "crashdetect"
	case EvRestart:
		return "restart"
	case EvJoin:
		return "join"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one traced operation.
type Event struct {
	// Time is the acting process's virtual clock after the operation.
	Time float64
	// Rank is the acting process's world rank.
	Rank int
	// Kind says whether this is a send or a receive.
	Kind EventKind
	// Peer is the other endpoint's world rank.
	Peer int
	// Bytes is the payload size.
	Bytes int
}

// Trace is the recorded event sequence of one run.  A one-shard run
// records Events in the order the scheduler executed the operations;
// an N-shard run records the same events ordered by (Time, Rank), each
// rank's events still in execution order.  Both orders are
// deterministic, and Timeline and ByRank render identically for every
// shard count.
type Trace struct {
	Events []Event
}

// Timeline renders the trace as one line per event, sorted by time
// (ties broken by rank), for golden-file style assertions and human
// inspection.
func (t *Trace) Timeline() string {
	evs := append([]Event(nil), t.Events...)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Time != evs[b].Time {
			return evs[a].Time < evs[b].Time
		}
		return evs[a].Rank < evs[b].Rank
	})
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%12.6fms  rank %2d  %s  peer %2d  %6d B\n",
			e.Time*1000, e.Rank, e.Kind, e.Peer, e.Bytes)
	}
	return b.String()
}

// ByRank returns the events of one process, in execution order.
func (t *Trace) ByRank(rank int) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	return out
}

// Sends counts the send events.
func (t *Trace) Sends() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == EvSend {
			n++
		}
	}
	return n
}

// record appends an event to the acting rank's shard buffer if
// tracing is enabled, and mirrors it into the observability layer if a
// tracer is attached.  Coordinator contexts append to shard buffers
// too, which is safe: the coordinator only fires timers while every
// worker is quiesced at a window barrier.  The buffers are merged into
// the trace when the run completes.
func (w *World) record(e Event) {
	if w.trace != nil {
		s := w.procs[e.Rank].shard
		s.events = append(s.events, e)
	}
	if w.obs != nil {
		w.obsEvent(e)
	}
}

// recordPairFor charges one payload message from p to world rank to.
// Pair counters live in the sender's shard (merged post-run) because
// the perfect-network send path does not hold the net-layer lock.
func (w *World) recordPairFor(p *Proc, to, bytes int) {
	p.shard.recordPair(p.worldRank, to, bytes)
}
