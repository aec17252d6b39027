package mpsim

import "sort"

// Elastic scale-out: the inverse of crash.go's shrink machinery.  A
// join plan marks ranks as *dormant* — allocated in the world (they
// have world ranks, nodes and communicator slots) but not yet running —
// and schedules virtual-time join events that launch each one's program
// body mid-run.  Joins ride the same timer heap as crashes, so elastic
// runs stay bit-for-bit deterministic, and every hook sits behind a
// `w.join != nil` check so fixed-membership runs pay nothing.
//
// Membership model (see DESIGN.md "Elastic membership"):
//
//   - The world is sized for its maximum membership up front; a join
//     plan only chooses *when* each rank starts executing.  This keeps
//     world ranks, node placement and the total event order stable
//     across shard counts, which is what makes grown
//     runs bit-identical to statically-sized ones once the application
//     masks out absent ranks.
//   - A dormant rank is invisible to the run: it executes nothing,
//     receives nothing, and sending to it panics (deterministically) —
//     the rank does not exist yet, exactly as a connect to an unbooted
//     node would fail.  Applications coordinate growth at aligned
//     virtual times using AbsentRanks/LiveWorld, mirroring how
//     DeadRanks/ShrinkWorld coordinate shrink.
//   - Each join is a group-membership change: it appends to the
//     incarnation clock (GroupIncarnation), so schedule caches keyed on
//     the incarnation invalidate across growth exactly as they do
//     across crash detections and restarts.

// JoinEvent schedules one elastic-growth event: world rank Rank, born
// dormant, starts executing its program body at virtual time At.  Rank
// is reduced modulo the world size, so seed-derived plans work for any
// process count.
type JoinEvent struct {
	Rank int
	At   float64
}

// JoinPlan supplies a run's growth schedule.  Joins must be
// deterministic given worldSize, so a seeded plan reproduces the same
// growth run after run.
type JoinPlan interface {
	Joins(worldSize int) []JoinEvent
}

// JoinRecord is one join's observable history, reported in Stats.
type JoinRecord struct {
	// Rank is the joining process's world rank.
	Rank int
	// At is the virtual time the rank started executing.
	At float64
}

// joinState is the per-world growth bookkeeping, allocated only when a
// join plan is configured.
type joinState struct {
	// pending[r] is true while world rank r is dormant (scheduled to
	// join but not yet launched).
	pending []bool
	// joinAt[r] is rank r's scheduled join time, -1 for ranks present
	// from the start.  It is the pure-time membership predicate: rank r
	// is absent at clock t iff joinAt[r] > t, so every process reading
	// membership at the same aligned virtual time agrees.
	joinAt []float64
	// incTimes are the virtual times of joins; together with the crash
	// layer's detections and restarts they form the group-incarnation
	// clock.
	incTimes []float64
	records  []JoinRecord
	// bodies are the program bodies, retained for launch at join time.
	bodies []func(p *Proc)
}

func (w *World) initJoin(plan JoinPlan, programs []ProgramSpec) {
	evs := plan.Joins(len(w.procs))
	if len(evs) == 0 {
		return
	}
	js := &joinState{
		pending: make([]bool, len(w.procs)),
		joinAt:  make([]float64, len(w.procs)),
		bodies:  make([]func(p *Proc), len(w.procs)),
	}
	for r := range w.procs {
		js.joinAt[r] = -1
		js.bodies[r] = programs[w.procs[r].progIndex].Body
	}
	w.join = js
	for _, ev := range evs {
		rank := ev.Rank % len(w.procs)
		if rank < 0 {
			rank += len(w.procs)
		}
		if js.pending[rank] {
			continue // first event wins; one join per rank
		}
		at := ev.At
		if at < 0 {
			at = 0
		}
		js.pending[rank] = true
		js.joinAt[rank] = at
		w.addTimer(&timer{at: at, rank: rank, kind: tJoin, p: w.procs[rank]})
	}
}

// dormant reports whether world rank r is scheduled to join but has
// not yet been launched.
func (w *World) dormant(r int) bool {
	return w.join != nil && w.join.pending[r]
}

// fireJoin launches a dormant rank at its scheduled virtual time.  The
// rank counted as live from t=0 (its eventual completion is part of
// the run), so no live count changes here — the join only starts its
// instruction stream.  In a sharded run the timer lives on the
// coordinator's global heap and fires while every shard is quiesced,
// so launching into the owning shard's run queue is safe.
func (w *World) fireJoin(tm *timer) {
	js := w.join
	p := tm.p
	r := p.worldRank
	if js == nil || !js.pending[r] {
		return
	}
	js.pending[r] = false
	js.incTimes = append(js.incTimes, tm.at)
	js.records = append(js.records, JoinRecord{Rank: r, At: tm.at})
	if p.clock < tm.at {
		p.clock = tm.at
	}
	w.record(Event{Time: tm.at, Rank: r, Kind: EvJoin, Peer: -1})
	w.launchProc(p, js.bodies[r])
	w.wake(p)
}

// JoinedAt returns the virtual time world rank r joined the world, or
// 0 for ranks present from the start.
func (p *Proc) JoinedAt(r int) float64 {
	js := p.world.join
	if js == nil || js.joinAt[r] < 0 {
		return 0
	}
	return js.joinAt[r]
}

// AbsentRanks returns the world ranks that have not yet joined as of
// this process's clock, in increasing order.  Membership is a pure
// function of virtual time (a rank is absent iff its scheduled join
// time is still in the future), so every process reading it at the
// same aligned virtual time sees the same set — the agreement property
// elastic-growth protocols build on, mirroring DeadRanks.
func (p *Proc) AbsentRanks() []int {
	js := p.world.join
	if js == nil {
		return nil
	}
	var absent []int
	for r := range js.joinAt {
		if js.joinAt[r] > p.clock {
			absent = append(absent, r)
		}
	}
	return absent
}

// JoinFaults reports whether this run carries a join plan; harnesses
// use it to switch onto membership-aware paths.
func (p *Proc) JoinFaults() bool { return p.world.join != nil }

// LiveWorld returns the world communicator restricted to the ranks
// that have joined and that the failure detector has not declared dead
// — the elastic group's current membership.  Every member calling it
// at the same aligned virtual time derives an identical communicator.
func (p *Proc) LiveWorld() *Comm {
	excl := p.DeadRanks()
	excl = append(excl, p.AbsentRanks()...)
	if len(excl) == 0 {
		return p.worldComm
	}
	return p.worldComm.Exclude(excl)
}

// Expand returns a communicator over this communicator's members plus
// the given world ranks, ordered by world rank — the inverse of
// Exclude.  Every member (including each joiner, via
// p.World().Sub of the same list) calling Expand with the same rank
// list derives an identical communicator: the context is a
// deterministic hash of the member list, and the fresh collective
// sequence space is the epoch resync that lets an enlarged group run
// collectives immediately even though old members and joiners have
// disjoint collective histories.
func (c *Comm) Expand(newWorldRanks []int) *Comm {
	seen := make(map[int]bool, len(c.ranks)+len(newWorldRanks))
	world := make([]int, 0, len(c.ranks)+len(newWorldRanks))
	for _, wr := range c.ranks {
		if !seen[wr] {
			seen[wr] = true
			world = append(world, wr)
		}
	}
	for _, wr := range newWorldRanks {
		if !seen[wr] {
			seen[wr] = true
			world = append(world, wr)
		}
	}
	sort.Ints(world)
	return newComm(c.p, world, subCtx(world))
}

// joinRecords returns the run's join history (for Stats); the slice is
// a copy, ordered by join time then rank.
func (w *World) joinRecords() []JoinRecord {
	if w.join == nil {
		return nil
	}
	out := append([]JoinRecord(nil), w.join.records...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Rank < out[b].Rank
	})
	return out
}
