package mpsim

import (
	"errors"
	"fmt"
	"sort"
)

// Fail-stop crash faults.  PR 2 made the *network* unreliable; this
// layer makes the *processors* mortal: a crash plan kills ranks at
// chosen virtual times (with optional restart), a virtual-time
// heartbeat failure detector lets survivors agree on the dead set, and
// communicator shrinking (Comm.Exclude / Proc.ShrinkWorld) gives the
// layers above a group to continue on.  Everything rides the existing
// timer heap, so crashy runs stay bit-for-bit deterministic, and every
// hook sits behind a `w.crash != nil` check so fault-free runs pay
// nothing.
//
// Failure model (see DESIGN.md "The failure model"):
//
//   - Crashes are fail-stop: a killed process executes no further
//     instructions after its next scheduling point, and its goroutine
//     unwinds cleanly (deferred functions run, no leaked senders or
//     receivers).  In-flight messages to it are lost.
//   - Detection is modeled, not messaged: a heartbeat protocol with
//     period P and suspicion threshold S would have every survivor
//     suspect a rank that crashed at time t by the first heartbeat
//     boundary after t plus S.  The simulator computes that instant
//     directly and flips a *global* detection flag there, so the
//     detector is eventually perfect (no false suspicions, bounded
//     detection lag P+S) and all survivors agree on the dead set —
//     the strongest detector the literature's group-shrink protocols
//     assume, and the cheapest to simulate without heartbeat traffic
//     perturbing the virtual-time results.
//   - Before detection, sends to a dead rank vanish silently (the wire
//     does not know the peer died).  From detection onward, sends and
//     receives bound to the dead rank fail fast with ErrPeerDead.

// ErrPeerDead is returned (wrapped in a *NetError) when an operation
// is bound to a rank the failure detector has declared crashed.
var ErrPeerDead = errors.New("peer dead: crash detected by failure detector")

// CrashEvent schedules one fail-stop fault: world rank Rank dies at
// virtual time At; if RestartAt > At the rank restarts there with a
// fresh incarnation of its program body.  Rank is reduced modulo the
// world size, so seed-derived plans work for any process count.
type CrashEvent struct {
	Rank      int
	At        float64
	RestartAt float64
}

// CrashPlan supplies a run's crash schedule.  Crashes must be
// deterministic given worldSize, so a seeded plan reproduces the same
// failures run after run.
type CrashPlan interface {
	Crashes(worldSize int) []CrashEvent
}

// Detector configures the virtual-time heartbeat failure detector.
type Detector struct {
	// Period is the heartbeat interval in virtual seconds.
	Period float64
	// SuspectAfter is how long after a missed heartbeat a rank is
	// declared dead.  Detection lag is bounded by Period+SuspectAfter.
	SuspectAfter float64
}

// DefaultDetector is the detector installed when a crash plan is
// configured without an explicit Config.Detect.
func DefaultDetector() *Detector {
	return &Detector{Period: 1e-3, SuspectAfter: 2e-3}
}

// CrashRecord is one crash's observable history, reported in Stats.
type CrashRecord struct {
	// Rank is the crashed process's world rank.
	Rank int
	// At is the virtual time the crash fired.
	At float64
	// DetectedAt is when the failure detector declared the rank dead,
	// or 0 if the run ended first.
	DetectedAt float64
	// RestartAt is when the rank restarted, or 0 for a permanent crash.
	RestartAt float64
}

// crashPanic unwinds a killed process's goroutine.  Unlike netPanic it
// is NOT recovered by WithTimeout — death propagates through every
// deadline scope — only by the process goroutine's top-level wrapper,
// which treats it as a clean exit rather than a run failure.
type crashPanic struct{ rank int }

// crashState is the per-world crash bookkeeping, allocated only when a
// crash plan is configured.
type crashState struct {
	detect *Detector
	// dead[r] is true while world rank r is crashed.
	dead []bool
	// restartPos[r] is the virtual time of rank r's latest restart.
	// A message sent before it was addressed to a dead incarnation and
	// is dropped at delivery — the restart wiped the queue it would
	// have joined.
	restartPos []float64
	// crashedAt[r] is the live crash's time, -1 when alive.
	crashedAt []float64
	// detectedAt[r] is when the detector declared r dead, -1 before.
	detectedAt []float64
	// recIdx[r] indexes the rank's open record in records, -1 if none.
	recIdx  []int
	records []CrashRecord
	// incTimes are the virtual times of group-membership changes
	// (detections and restarts); a process's view of the group
	// incarnation is how many of these precede its clock.
	incTimes []float64
	// bodies are the program bodies, retained for restarts.
	bodies []func(p *Proc)
	// restarts[r] counts rank r's restart timers not yet fired.  A dead
	// rank with a restart ahead stays live, so the run cannot end
	// before the restart brings it back.
	restarts []int
}

func (w *World) initCrash(plan CrashPlan, det *Detector, programs []ProgramSpec) {
	evs := plan.Crashes(len(w.procs))
	if len(evs) == 0 {
		return
	}
	if det == nil {
		det = DefaultDetector()
	}
	cs := &crashState{
		detect:     det,
		dead:       make([]bool, len(w.procs)),
		restartPos: make([]float64, len(w.procs)),
		crashedAt:  make([]float64, len(w.procs)),
		detectedAt: make([]float64, len(w.procs)),
		recIdx:     make([]int, len(w.procs)),
		bodies:     make([]func(p *Proc), len(w.procs)),
		restarts:   make([]int, len(w.procs)),
	}
	for r := range w.procs {
		cs.crashedAt[r] = -1
		cs.detectedAt[r] = -1
		cs.recIdx[r] = -1
		cs.bodies[r] = programs[w.procs[r].progIndex].Body
	}
	w.crash = cs
	for _, ev := range evs {
		rank := ev.Rank % len(w.procs)
		if rank < 0 {
			rank += len(w.procs)
		}
		at := ev.At
		if at < 0 {
			at = 0
		}
		w.addTimer(&timer{at: at, rank: rank, kind: tCrash, p: w.procs[rank]})
		if ev.RestartAt > at {
			w.addTimer(&timer{at: ev.RestartAt, rank: rank, kind: tRestart, p: w.procs[rank]})
			cs.restarts[rank]++
		}
	}
}

// fireCrash kills a rank at the timer's virtual time: the process is
// marked dead immediately (messages stop being delivered to it), its
// goroutine is unwound on the spot, and the failure detector's
// suspicion timer is armed.  Reaping eagerly — rather than waiting for
// the victim's next scheduling turn — keeps the death's side effects
// (live count, queue wipe, restart eligibility) at one well-defined
// virtual position, which N-shard runs need to match one-shard runs.
func (w *World) fireCrash(tm *timer) {
	cs := w.crash
	p := tm.p
	r := p.worldRank
	if cs.dead[r] || p.state == stateDone {
		return // already dead, or the program finished first
	}
	if w.dormant(r) {
		return // not yet joined: a rank that never existed cannot crash
	}
	cs.dead[r] = true
	cs.crashedAt[r] = tm.at
	cs.recIdx[r] = len(cs.records)
	cs.records = append(cs.records, CrashRecord{Rank: r, At: tm.at})
	p.killed = true
	w.record(Event{Time: tm.at, Rank: r, Kind: EvCrash, Peer: -1})
	// Heartbeat model: the rank misses the first heartbeat after the
	// crash; survivors suspect it SuspectAfter later.
	beat := (float64(int(tm.at/cs.detect.Period)) + 1) * cs.detect.Period
	w.addTimer(&timer{at: beat + cs.detect.SuspectAfter, rank: r, kind: tDetect, p: p})
	if p.clock < tm.at {
		p.clock = tm.at
	}
	w.reap(p)
	if cs.restarts[r] > 0 {
		p.shard.live++
	}
}

// reap resumes a killed process so its goroutine unwinds immediately
// (checkKilled panics at the top of every scheduling point, before the
// resumed operation inspects anything).  The unwind posts the process's
// done event to its scheduler channel; we consume it here so the crash
// is fully settled — live count decremented, state stateDone — before
// the timer that fired it returns.
func (w *World) reap(p *Proc) {
	if p.heapIdx >= 0 {
		// Runnable: pull it out of its run queue first.
		w.removeFromRunq(p)
	}
	p.state = stateRunning
	p.resume <- struct{}{}
	ev := <-p.sched
	if ev.p != p || p.state != stateDone {
		panic("mpsim: internal error: reaped process did not unwind")
	}
	w.noteDone(p)
}

// fireDetect flips the global detection flag for a crashed rank and
// wakes every survivor whose blocked receive is provably hopeless —
// all of its wanted sources are detected-dead — with ErrPeerDead.
func (w *World) fireDetect(tm *timer) {
	cs := w.crash
	r := tm.p.worldRank
	if !cs.dead[r] || cs.detectedAt[r] >= 0 {
		return // restarted before suspicion, or already detected
	}
	cs.detectedAt[r] = tm.at
	if i := cs.recIdx[r]; i >= 0 {
		cs.records[i].DetectedAt = tm.at
	}
	cs.incTimes = append(cs.incTimes, tm.at)
	w.record(Event{Time: tm.at, Rank: r, Kind: EvCrashDetect, Peer: r})
	for _, q := range w.procs {
		if q.state != stateBlocked || q.worldRank == r {
			continue
		}
		if peer, hopeless := w.hopelessWants(q.wantsAny, q.wantSrc, tm.at); hopeless {
			q.wakeErr = &NetError{Op: "recv", Rank: q.worldRank, Peer: peer, Err: ErrPeerDead}
			if q.clock < tm.at {
				q.clock = tm.at
			}
			w.wake(q)
		}
	}
}

// hopelessWants reports whether every source a blocked receive waits
// on is a specific, detected-dead rank, returning one such peer.
// wantsAny non-nil describes a multi-receive; otherwise wantSrc is the
// single wanted source.
func (w *World) hopelessWants(wantsAny []recvWant, wantSrc int, now float64) (int, bool) {
	if wantsAny != nil {
		peer := -1
		for _, want := range wantsAny {
			if want.src == AnySource || !w.deadDetected(want.src, now) {
				return -1, false
			}
			peer = want.src
		}
		return peer, peer >= 0
	}
	if wantSrc != AnySource && w.deadDetected(wantSrc, now) {
		return wantSrc, true
	}
	return -1, false
}

// fireRestart relaunches a crashed rank with a fresh incarnation.  The
// crash that killed it reaped the old goroutine synchronously, so the
// process is always stateDone here.
func (w *World) fireRestart(tm *timer) {
	cs := w.crash
	p := tm.p
	cs.restarts[p.worldRank]--
	if !cs.dead[p.worldRank] {
		return
	}
	if p.state != stateDone {
		panic("mpsim: internal error: restarting a process that never unwound")
	}
	w.restartProc(p, tm.at)
}

// restartProc resets a dead process and launches a fresh incarnation
// of its program body.
func (w *World) restartProc(p *Proc, at float64) {
	cs := w.crash
	r := p.worldRank
	cs.dead[r] = false
	cs.crashedAt[r] = -1
	cs.detectedAt[r] = -1
	if i := cs.recIdx[r]; i >= 0 {
		cs.records[i].RestartAt = at
		cs.recIdx[r] = -1
	}
	cs.incTimes = append(cs.incTimes, at)
	cs.restartPos[r] = at
	// Fresh transport state on every link touching the rank: the new
	// incarnation starts its sequence spaces from zero, and abandoned
	// links heal.  Held reassembly entries drop their payload
	// references; inflight packets keep theirs — their retransmission
	// chains continue until acked or abandoned, releasing then.
	if w.net != nil {
		for k, ls := range w.net.links {
			if k.from == r || k.to == r {
				for _, h := range ls.held {
					if h.pay != nil {
						h.pay.Release()
					}
				}
				delete(w.net.links, k)
				delete(w.net.dead, k)
			}
		}
	}
	p.killed = false
	// Wiping the dead incarnation's queue releases each undelivered
	// message's payload reference.
	for _, m := range p.queue {
		m.releasePay()
	}
	p.queue = nil
	p.wantsAny = nil
	p.wakeErr = nil
	p.deadlineAt, p.deadlineGen = 0, 0
	p.incarnation++
	if p.clock < at {
		p.clock = at
	}
	// The restarted incarnation starts its collective sequence spaces
	// from zero; rejoining survivors mid-collective-history requires an
	// application-level epoch resync (SetCollectiveEpoch).
	p.worldComm.seq = 0
	p.progComm.seq = 0
	w.record(Event{Time: at, Rank: r, Kind: EvRestart, Peer: -1})
	w.launchProc(p, cs.bodies[r])
	w.wake(p)
}

// deadDetected reports whether world rank r is dead and the detector
// has declared it so by virtual time now.
func (w *World) deadDetected(r int, now float64) bool {
	cs := w.crash
	if cs == nil {
		return false
	}
	return cs.dead[r] && cs.detectedAt[r] >= 0 && cs.detectedAt[r] <= now
}

// checkKilled unwinds the process if a crash fault has claimed it.
// Called at every scheduling point, it is the fail-stop boundary: the
// process executes nothing after it.
func (p *Proc) checkKilled() {
	if p.killed {
		panic(crashPanic{rank: p.worldRank})
	}
}

// CrashFaults reports whether this run carries a crash plan; higher
// layers use it to switch moves onto the guarded (abortable) paths.
func (p *Proc) CrashFaults() bool { return p.world.crash != nil }

// DetectionLag returns the failure detector's worst-case lag
// (Period+SuspectAfter), or 0 when the run has no crash plan.
// Recovery protocols sleep at least this long before trusting
// DeadRanks to reflect a suspected failure.
func (p *Proc) DetectionLag() float64 {
	cs := p.world.crash
	if cs == nil {
		return 0
	}
	return cs.detect.Period + cs.detect.SuspectAfter
}

// DeadRanks returns the world ranks the failure detector has declared
// dead as of this process's clock, in increasing order.  All survivors
// calling it at the same virtual time see the same set — the agreement
// property group-shrink protocols build on.
func (p *Proc) DeadRanks() []int {
	cs := p.world.crash
	if cs == nil {
		return nil
	}
	var dead []int
	for r := range cs.dead {
		if p.world.deadDetected(r, p.clock) {
			dead = append(dead, r)
		}
	}
	return dead
}

// DeadSince returns the virtual time world rank r crashed, if the
// detector has declared it dead by this process's clock, and -1
// otherwise.  Recovery uses it to pick the last checkpoint that
// completed before the failure.
func (p *Proc) DeadSince(r int) float64 {
	if !p.world.deadDetected(r, p.clock) {
		return -1
	}
	return p.world.crash.crashedAt[r]
}

// Incarnation returns how many times this process has been restarted
// by a crash plan (0 for the first launch).
func (p *Proc) Incarnation() int { return p.incarnation }

// GroupIncarnation counts the group-membership changes (crash
// detections, restarts, and elastic joins) visible at this process's
// clock.  It is the schedule-cache invalidation key: any cached
// communication schedule computed under an older incarnation may name
// dead ranks or miss joined ones.
func (p *Proc) GroupIncarnation() int {
	n := 0
	if cs := p.world.crash; cs != nil {
		for _, t := range cs.incTimes {
			if t <= p.clock {
				n++
			}
		}
	}
	if js := p.world.join; js != nil {
		for _, t := range js.incTimes {
			if t <= p.clock {
				n++
			}
		}
	}
	return n
}

// Sleep advances the process's clock by d seconds and yields, so other
// processes (and virtual-time events, including crash detections) run
// in the meantime.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("mpsim: rank %d sleeps negative time %g", p.worldRank, d))
	}
	p.clock += d
	p.yield()
}

// SleepUntil advances the process's clock to virtual time t (a no-op
// when already past) and yields.  Survivors of a crash use it as a
// message-free barrier: every process aligning on the same t reads the
// same detector state there.
func (p *Proc) SleepUntil(t float64) {
	if p.clock < t {
		p.clock = t
	}
	p.yield()
}

// ShrinkWorld returns the world communicator restricted to the ranks
// the failure detector has not declared dead — the World.Shrink
// operation of elastic-group runtimes.  Every survivor calling it at
// the same virtual time derives an identical communicator.
func (p *Proc) ShrinkWorld() *Comm {
	return p.worldComm.Exclude(p.DeadRanks())
}

// Exclude returns a communicator over this communicator's members
// minus the given world ranks, preserving order.  Every surviving
// member calling Exclude with the same list derives an identical
// communicator (the context is a deterministic hash of the member
// list), with a fresh collective sequence space — the epoch resync
// that lets survivors run collectives immediately after a shrink even
// if their previous collective aborted at different points.
func (c *Comm) Exclude(deadWorldRanks []int) *Comm {
	drop := make(map[int]bool, len(deadWorldRanks))
	for _, r := range deadWorldRanks {
		drop[r] = true
	}
	world := make([]int, 0, len(c.ranks))
	for _, wr := range c.ranks {
		if !drop[wr] {
			world = append(world, wr)
		}
	}
	return newComm(c.p, world, subCtx(world))
}

// Crashes returns the run's crash history so far (for Stats and the
// cmd tools); the slice is a copy.
func (w *World) crashRecords() []CrashRecord {
	if w.crash == nil {
		return nil
	}
	out := append([]CrashRecord(nil), w.crash.records...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Rank < out[b].Rank
	})
	return out
}
