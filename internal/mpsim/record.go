package mpsim

import (
	"sort"
	"sync"

	"metachaos/internal/obs"
)

// record is one shard's event record: what World.note, the simulator's
// only recording entry point, charged to the shard's ranks.  mergeStats
// folds the records into Stats.Pairs, Trace.Events and Config.Obs when
// the run ends.  The shard.go context discipline keeps each record, and
// so its tracer, single-writer.
type record struct {
	events []Event // trace buffer (Config.Trace)
	// pairs holds the ordered-pair counters charged to the shard's
	// ranks.  mu guards it in runs with a network layer, where
	// NetPairStats reads other shards' records mid-run.
	mu    sync.Mutex
	pairs map[PairKey]*PairStats
	// obs is the shard's tracer, nil without Config.Obs, and the
	// instruments note feeds in its registry.
	obs        *obs.Tracer
	counts     [numEventKinds]*obs.Counter
	sent, recv *obs.Counter
	msgBytes   *obs.Histogram
}

// kindCounters names the obs counter each event kind feeds.
var kindCounters = [numEventKinds]string{
	EvSend:           "mpsim.sends",
	EvRecv:           "mpsim.recvs",
	EvDrop:           "mpsim.drops",
	EvRetransmit:     "mpsim.retransmits",
	EvDupDiscard:     "mpsim.dup_discards",
	EvCorruptDiscard: "mpsim.corrupt_discards",
	EvAck:            "mpsim.acks",
	EvTimeout:        "mpsim.timeouts",
	EvPeerFail:       "mpsim.peer_fails",
	EvCrash:          "mpsim.crashes",
	EvCrashDetect:    "mpsim.crash_detects",
	EvRestart:        "mpsim.restarts",
	EvJoin:           "mpsim.joins",
}

// attachTracer gives the record its shard-local tracer.
func (rec *record) attachTracer() {
	rec.obs = obs.NewTracer()
	m := rec.obs.MetricsRegistry()
	for k, name := range kindCounters {
		rec.counts[k] = m.Counter(name)
	}
	rec.sent, rec.recv = m.Counter("mpsim.bytes_sent"), m.Counter("mpsim.bytes_recv")
	rec.msgBytes = m.Histogram("mpsim.msg_bytes", obs.DefBytesBuckets)
}

// pair returns the record's counters for the ordered (from, to) link,
// creating them on first use.
func (rec *record) pair(from, to int) *PairStats {
	if rec.pairs == nil {
		rec.pairs = make(map[PairKey]*PairStats)
	}
	k := PairKey{From: from, To: to}
	ps := rec.pairs[k]
	if ps == nil {
		ps = &PairStats{}
		rec.pairs[k] = ps
	}
	return ps
}

// note records one event: the acting rank's RankStats (kept live for
// Proc.LocalStats), and its shard record's pair counters, trace buffer
// and tracer.  Send and receive spans are opened at their call sites,
// where the clock before the operation is known; every other kind
// surfaces as an instant on the acting rank's timeline.
func (w *World) note(e Event) {
	rec := &w.procs[e.Rank].shard.rec
	rs := &w.stats.PerRank[e.Rank]
	b := int64(e.Bytes)
	if w.net != nil {
		rec.mu.Lock()
	}
	switch e.Kind {
	case EvSend:
		rs.MsgsSent++
		rs.BytesSent += b
		ps := rec.pair(e.Rank, e.Peer)
		ps.Msgs++
		ps.Bytes += b
	case EvRecv:
		rs.MsgsRecv++
		rs.BytesRecv += b
	case EvDrop:
		rs.Drops++
		if !e.Ack {
			rec.pair(e.Rank, e.Peer).Drops++
		}
	case EvRetransmit:
		rs.Retransmits++
		rec.pair(e.Rank, e.Peer).Retransmits++
	case EvDupDiscard:
		rs.DupsDiscarded++
		rec.pair(e.Peer, e.Rank).DupsDiscarded++
	case EvCorruptDiscard:
		rs.CorruptDiscarded++
	case EvTimeout:
		rs.Timeouts++
	case EvPeerFail:
		rs.FailedSends++
	}
	if w.net != nil {
		rec.mu.Unlock()
	}
	if w.trace != nil {
		rec.events = append(rec.events, e)
	}
	if rec.obs == nil {
		return
	}
	rec.counts[e.Kind].Inc()
	switch e.Kind {
	case EvSend:
		rec.sent.Add(b)
		rec.msgBytes.Observe(float64(e.Bytes))
	case EvRecv:
		rec.recv.Add(b)
	default:
		sp := rec.obs.Instant(e.Rank, e.Kind.String(), e.Time)
		if e.Peer >= 0 {
			sp.SetPeer(e.Peer)
		}
		if e.Bytes > 0 {
			sp.SetBytes(e.Bytes)
		}
	}
}

// mergeStats folds the shard records into the run's Stats, Trace and
// tracer after every worker has quiesced for the last time.  A
// one-shard run keeps its execution order; an N-shard run merges trace
// events into (time, rank) order and spans as obs.Tracer.Merge does.
func (sr *shardedRun) mergeStats() {
	w := sr.w
	w.stats.Shards = len(sr.shards)
	for i := range sr.shards {
		s := &sr.shards[i]
		if s.makespan > w.stats.MakespanSeconds {
			w.stats.MakespanSeconds = s.makespan
		}
		rec := &s.rec
		if w.stats.Pairs == nil {
			w.stats.Pairs = rec.pairs
			continue
		}
		for k, ps := range rec.pairs {
			if t := w.stats.Pairs[k]; t != nil {
				t.Msgs += ps.Msgs
				t.Bytes += ps.Bytes
				t.Drops += ps.Drops
				t.Retransmits += ps.Retransmits
				t.DupsDiscarded += ps.DupsDiscarded
			} else {
				w.stats.Pairs[k] = ps
			}
		}
	}
	if w.trace != nil {
		w.trace.Events = sr.mergeEvents()
	}
	if w.obs != nil {
		tracers := make([]*obs.Tracer, len(sr.shards))
		for i := range sr.shards {
			tracers[i] = sr.shards[i].rec.obs
		}
		w.obs.Merge(tracers...)
		w.obs.MetricsRegistry().Gauge("mpsim.makespan_seconds").Set(w.stats.MakespanSeconds)
	}
}

// mergeEvents returns the run's trace events, merged into (time, rank)
// order when there are several shards.
func (sr *shardedRun) mergeEvents() []Event {
	if len(sr.shards) == 1 {
		return sr.shards[0].rec.events
	}
	total := 0
	for i := range sr.shards {
		total += len(sr.shards[i].rec.events)
	}
	evs := make([]Event, 0, total)
	for i := range sr.shards {
		evs = append(evs, sr.shards[i].rec.events...)
	}
	// A rank's events all sit in one buffer, so a stable sort yields a
	// canonical stream whatever the partition.
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Time != evs[b].Time {
			return evs[a].Time < evs[b].Time
		}
		return evs[a].Rank < evs[b].Rank
	})
	return evs
}

// Obs returns the tracer this process records into — its shard's
// tracer, merged into Config.Obs when the run ends — or nil when
// observability is off.  Libraries above the simulator use it to wrap
// their own phases in spans on the same virtual clock and to keep
// counters; it must only be used from the process's own body.
func (p *Proc) Obs() *obs.Tracer { return p.shard.rec.obs }

// Span opens a span on the process's virtual clock, for the simulator's
// own operations and the library layers above it; close it with
// End(p.Clock()).  With observability off it returns the zero Span,
// which ignores every later call.
func (p *Proc) Span(name string) obs.Span {
	if p.shard.rec.obs == nil {
		return obs.Span{}
	}
	return p.shard.rec.obs.Begin(p.worldRank, name, p.clock)
}
