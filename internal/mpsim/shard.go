package mpsim

import (
	"container/heap"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
)

// Conservative parallel discrete-event scheduler.
//
// This is the simulator's only scheduler.  The world is partitioned
// into one or more shards, each owning a contiguous, node-aligned
// range of world ranks with its own run queue, timer heap and timer
// freelist.  Within a shard, the rules are: fire every due timer (one
// at or before the earliest runnable clock) first, then resume the
// runnable process with the smallest (clock, world rank).
//
// A one-shard run executes its whole world in a single unbounded
// window, and its shard owns every timer.  An N-shard run advances in
// lookahead windows: the coordinator computes the globally earliest
// pending event M and a window bound limit = min(M + lookahead, next
// global timer), and every shard then executes, in parallel, all of
// its events that precede the bound in the run's total event order.
// The LogGP cost model makes this safe: any message a shard sends
// while executing inside the window arrives no earlier than its own
// position plus SendOverhead + Latency >= limit, so no shard can be
// handed an event in its past.  The transport, crash and join timers
// of an N-shard run live on the coordinator's global heap and fire
// between windows.
//
// Determinism is an invariant, not best effort.  Every pending event
// has a position in one total order — (virtual time, class, world
// rank, per-rank sequence number), where class orders timers before
// process resumptions at the same instant — and every shard count
// executes events in that order.  Cross-shard interactions are
// confined to positions the window protocol has already synchronized
// on, so an N-shard run is bit-identical to a one-shard run: same
// virtual-time results, same trace timelines, same stats.
//
// Context discipline (what makes the -race run clean):
//
//   - The coordinator goroutine runs shard 0's windows itself; every
//     other shard has a worker goroutine.  Shard state (runq, local
//     timers, proc queues/clocks, the shard record and its ranks'
//     RankStats) is touched only by whichever goroutine runs that
//     shard, or by the coordinator while every worker is quiesced at a
//     window barrier (the cmd/done channels give happens-before).
//     With a network layer, NetPairStats also reads other shards' pair
//     counters, under record.mu.
//   - The coordinator's global heap is touched by the coordinator, or
//     by shards under netLayer.mu (the reliable transport's send path),
//     which the coordinator never contends with because it only fires
//     global timers while shards are parked.
//   - Cross-shard perfect-network messages are staged in the sending
//     shard's outbox and moved into the destination shard's heap at
//     the barrier.
//   - Scatter-gather payloads never cross a shard boundary while still
//     viewing live application storage: sendImpl materializes any
//     unmaterialized payload bound for another shard into its own
//     pooled segment, so the destination shard only ever reads bytes
//     the sending shard will never mutate again.  Same-shard
//     deliveries, which are all deliveries of a one-shard run, stay
//     zero-copy.

// autoShardWorlds is the world size at which a run with Config.Shards
// == 0 and no MPSIM_SHARDS override starts sharding automatically.
// Small worlds stay on one shard: the window barriers cost more than
// the parallelism wins, and the gated perf benchmarks pin the one-shard
// path's ns/op.
const autoShardWorlds = 256

// evKey is one event's position in the run's total order.  cls is 0
// for timers and 1 for process resumptions (a shard fires all due
// timers before resuming an equal-clock process); the window bound
// uses cls -1 so that a bound at time t excludes every event at t.
type evKey struct {
	t    float64
	cls  int
	rank int
	seq  int
}

func (a evKey) less(b evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.cls != b.cls {
		return a.cls < b.cls
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func timerKey(tm *timer) evKey { return evKey{t: tm.at, cls: 0, rank: tm.rank, seq: tm.seq} }
func procKey(p *Proc) evKey    { return evKey{t: p.clock, cls: 1, rank: p.worldRank} }

var infKey = evKey{t: math.Inf(1)}

// shard is one scheduler shard: a contiguous rank range with its own
// run queue, timer heap, and freelist.
type shard struct {
	w      *World
	lo, hi int // world-rank range [lo, hi)

	runq   procHeap
	timers timerHeap
	tc     timerCache

	// sched receives scheduling events from this shard's processes
	// (and, during a crash reaping, from the coordinator's handshake).
	sched chan schedEvent

	live     int
	makespan float64

	rec record // what note recorded for this shard's ranks (record.go)

	// out stages cross-shard perfect-network deliveries created during
	// a window; the coordinator moves them to their destination shards
	// at the barrier.  Their arrival times are >= the window bound, so
	// staging them never delays an executable event.
	out []*timer

	failure *runFailure

	// cmd hands windows to the shard's worker goroutine; nil for
	// shard 0, which the coordinator runs itself.
	cmd chan evKey
}

// nextKey is the position of the shard's earliest pending event.
// Coordinator-only (quiesced).
func (s *shard) nextKey() evKey {
	k := infKey
	if len(s.timers) > 0 {
		k = timerKey(s.timers[0])
	}
	if s.runq.Len() > 0 {
		if pk := procKey(s.runq[0]); pk.less(k) {
			k = pk
		}
	}
	return k
}

// worker runs windows as the coordinator hands them out.
func (s *shard) worker(done chan<- struct{}) {
	for limit := range s.cmd {
		s.runWindow(limit)
		done <- struct{}{}
	}
}

// runWindow executes every shard event that precedes limit: fire due
// timers (at <= next runnable clock) first, then resume the earliest
// runnable process.  The window ends early once the shard has no live
// process left — after the last one finishes or, in a one-shard run,
// where crash timers fire inside the window, after a crash kills it —
// because the run ends when no process is live: timers still pending
// then are never fired.
func (s *shard) runWindow(limit evKey) {
	w := s.w
	for {
		for len(s.timers) > 0 && timerKey(s.timers[0]).less(limit) &&
			(s.runq.Len() == 0 || s.timers[0].at <= s.runq[0].clock) {
			w.fireTimer(heap.Pop(&s.timers).(*timer), &s.tc)
			if s.live == 0 {
				return
			}
		}
		if s.runq.Len() == 0 || !procKey(s.runq[0]).less(limit) {
			return
		}
		p := heap.Pop(&s.runq).(*Proc)
		p.state = stateRunning
		p.resume <- struct{}{}
		ev := <-s.sched
		switch ev.p.state {
		case stateDone:
			w.noteDone(ev.p)
			if s.failure != nil || s.live == 0 {
				return
			}
		case stateRunnable:
			heap.Push(&s.runq, ev.p)
		case stateBlocked:
			// Parked until a matching message arrives.
		default:
			panic("mpsim: internal error: yielded process in unexpected state")
		}
	}
}

// shardedRun is the scheduler of one World.
type shardedRun struct {
	w         *World
	shards    []shard
	lookahead float64       // +Inf for a one-shard run
	done      chan struct{} // worker window completions; nil for one shard
}

// route registers a freshly stamped timer with the heap that may fire
// it.  tMsg fires at its destination's shard: pushed directly when the
// sender owns it, staged in the sender's outbox otherwise.  tWake is
// the target process's own registration.  Every other kind (transport
// packets, crash plumbing, joins) belongs to the one shard of a
// one-shard run and is global in an N-shard run: shard-side creators
// hold netLayer.mu, and the coordinator only touches the global heap
// while shards are quiesced.
func (sr *shardedRun) route(tm *timer) {
	switch {
	case tm.kind == tMsg:
		src, dst := sr.w.procs[tm.rank].shard, sr.w.procs[tm.dst].shard
		if src == dst {
			heap.Push(&dst.timers, tm)
		} else {
			src.out = append(src.out, tm)
		}
	case tm.kind == tWake:
		heap.Push(&tm.p.shard.timers, tm)
	case len(sr.shards) == 1:
		heap.Push(&sr.shards[0].timers, tm)
	default:
		heap.Push(&sr.w.timers, tm)
	}
}

// shardBounds partitions world ranks into up to n contiguous ranges
// aligned to node boundaries (a node's processes exchange zero-latency
// shared-memory messages, so splitting one would void the lookahead).
// Returns the range starts; a single start means one shard.
func shardBounds(w *World, n int) []int {
	bounds := []int{0}
	size := len(w.procs)
	for i := 1; i < n; i++ {
		b := i * size / n
		for b > 0 && b < size && w.procs[b].node == w.procs[b-1].node {
			b++
		}
		if b > bounds[len(bounds)-1] && b < size {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// resolveShards picks the shard count for a run: Config.Shards, then
// the MPSIM_SHARDS environment variable, then auto-sharding of large
// worlds across min(GOMAXPROCS, nodes).  Returns 1 (one shard) when
// the machine has no latency floor to derive lookahead from.  An
// attached tracer does not matter: every shard records into its own.
func (w *World) resolveShards(cfg Config) int {
	// Validate the environment override before any early return: a
	// typo'd MPSIM_SHARDS that was silently ignored would make every
	// "why isn't it sharding" investigation start from a lie.
	env, envSet := shardsFromEnv()
	if w.safeLookahead() <= 0 {
		return 1
	}
	s := cfg.Shards
	if s == 0 && envSet {
		s = env
	}
	if s == 0 {
		if len(w.procs) < autoShardWorlds {
			return 1
		}
		s = runtime.GOMAXPROCS(0)
	}
	if s < 1 {
		return 1
	}
	if s > len(w.nodes) {
		s = len(w.nodes)
	}
	if s > len(w.procs) {
		s = len(w.procs)
	}
	return s
}

// shardsFromEnv reads and validates the MPSIM_SHARDS override.  An
// unset or empty variable reports envSet false; "0" explicitly
// requests automatic resolution.  Anything that is not a non-negative
// integer panics with a clear error — silently ignoring a typo would
// leave the run on a scheduler the operator did not ask for.
func shardsFromEnv() (n int, envSet bool) {
	env := os.Getenv("MPSIM_SHARDS")
	if env == "" {
		return 0, false
	}
	v, err := strconv.Atoi(env)
	if err != nil {
		panic(fmt.Sprintf("mpsim: invalid MPSIM_SHARDS=%q: not an integer (use a non-negative shard count; 0 = automatic)", env))
	}
	if v < 0 {
		panic(fmt.Sprintf("mpsim: invalid MPSIM_SHARDS=%q: negative shard count (use a non-negative value; 0 = automatic)", env))
	}
	return v, true
}

// safeLookahead is the largest window the cost model guarantees: any
// event a process schedules beyond its own shard while executing at
// position t lands at or after t + SendOverhead + Latency (perfect
// network and reliable-transport deliveries both pay the send overhead
// and then the wire latency).  A reliable transport with an explicit
// RTO shorter than the latency arms retransmit timers earlier than
// deliveries, so the RTO becomes the binding floor.
func (w *World) safeLookahead() float64 {
	m := w.machine
	la := m.Latency
	if w.net != nil && w.net.rto > 0 && w.net.rto < la {
		la = w.net.rto
	}
	return m.SendOverhead + la
}

// effectiveLookahead applies a lookahead override, clamped to the safe
// bound (a larger window would let a shard outrun messages
// still in another shard's future).
func (w *World) effectiveLookahead(override float64) float64 {
	la := w.safeLookahead()
	if override > 0 && override < la {
		la = override
	}
	return la
}

// partition splits the world into up to n shards and binds every
// process to its shard.  A one-shard run gets an unbounded window;
// an N-shard run gets the lookahead override (zero for none) clamped
// to the safe bound.
func (sr *shardedRun) partition(w *World, n int, lookahead float64) {
	bounds := shardBounds(w, n)
	sr.w = w
	sr.shards = make([]shard, len(bounds))
	sr.lookahead = math.Inf(1)
	if len(bounds) > 1 {
		sr.lookahead = w.effectiveLookahead(lookahead)
		sr.done = make(chan struct{}, len(bounds)-1)
	}
	for i, lo := range bounds {
		hi := len(w.procs)
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		s := &sr.shards[i]
		s.w, s.lo, s.hi = w, lo, hi
		if w.obs != nil {
			s.rec.attachTracer()
		}
		s.runq = make(procHeap, 0, hi-lo)
		s.sched = make(chan schedEvent)
		// Dormant (not-yet-joined) ranks count as live from t=0: their
		// eventual completion is part of the run, and counting them
		// keeps the run alive until their join timers fire even if
		// every launched process finishes first.
		s.live = hi - lo
		if i > 0 {
			s.cmd = make(chan evKey)
		}
		for r := lo; r < hi; r++ {
			w.procs[r].shard = s
			w.procs[r].sched = s.sched
		}
	}
}

// run is the coordinator loop: drain due global timers while shards
// are quiesced, hand out one lookahead window (running shard 0's
// itself), barrier, move staged cross-shard deliveries, repeat.  A
// one-shard run passes through the loop once per deadlock check: its
// single window is unbounded.
func (sr *shardedRun) run() {
	w := sr.w
	workers := sr.shards[1:]
	for i := range workers {
		go workers[i].worker(sr.done)
	}
	defer func() {
		for i := range workers {
			close(workers[i].cmd)
		}
	}()
	home := &sr.shards[0]
	for {
		if f := sr.collectFailure(); f != nil {
			// Abandon the run; the panic in Run reports it.  Remaining
			// process goroutines are simply never resumed again.
			w.failure = f
			return
		}
		live := 0
		for i := range sr.shards {
			live += sr.shards[i].live
		}
		if live == 0 {
			break
		}
		minKey := infKey
		for i := range sr.shards {
			if k := sr.shards[i].nextKey(); k.less(minKey) {
				minKey = k
			}
		}
		// Fire global timers that precede every shard event.  Each fire
		// may wake processes or create new timers, so recompute per
		// iteration.
		if len(w.timers) > 0 && timerKey(w.timers[0]).less(minKey) {
			w.fireTimer(heap.Pop(&w.timers).(*timer), &home.tc)
			continue
		}
		if math.IsInf(minKey.t, 1) {
			w.panicDeadlock()
		}
		limit := evKey{t: minKey.t + sr.lookahead, cls: -1}
		if len(w.timers) > 0 {
			if gk := timerKey(w.timers[0]); gk.less(limit) {
				limit = gk
			}
		}
		launched := 0
		for i := range workers {
			if workers[i].nextKey().less(limit) {
				workers[i].cmd <- limit
				launched++
			}
		}
		if home.nextKey().less(limit) {
			home.runWindow(limit)
		}
		for i := 0; i < launched; i++ {
			<-sr.done
		}
		for i := range sr.shards {
			s := &sr.shards[i]
			for _, tm := range s.out {
				dst := w.procs[tm.dst].shard
				heap.Push(&dst.timers, tm)
			}
			s.out = s.out[:0]
		}
	}
	sr.mergeStats()
}

// collectFailure returns the failure to report, preferring the one at
// the earliest virtual position (then lowest rank) so the abort is
// deterministic even if several shards failed in one window.
func (sr *shardedRun) collectFailure() *runFailure {
	var f *runFailure
	fClock := math.Inf(1)
	for i := range sr.shards {
		sf := sr.shards[i].failure
		if sf == nil {
			continue
		}
		c := sr.w.procs[sf.rank].finalClock
		if f == nil || c < fClock || (c == fClock && sf.rank < f.rank) {
			f, fClock = sf, c
		}
	}
	return f
}
