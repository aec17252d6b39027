package core

import (
	"fmt"

	"metachaos/internal/mpsim"
)

// Crash recovery: retrying a move over the survivors of a fail-stop
// fault.  When a move loses a peer, the executor drains its remaining
// lanes and reports the dead peer in MoveResult.FailedPeers; this file
// adds the policy layer that turns that partial result into a complete
// one — agree the move failed, shrink the coupling to the ranks the
// failure detector still trusts, rewind application state to the last
// checkpoint, rebuild the transfer's specs over the survivors,
// recompute the schedule, and run the move again.

// RecoveryHooks are the application-supplied halves of MoveWithRecovery.
// Both run on every surviving process, after the group has shrunk to g.
type RecoveryHooks struct {
	// Rewind restores this process's application state to the last
	// consistent checkpoint (typically ckpt.Store.Restore) before the
	// move is retried.  Nil skips the rewind — correct only when the
	// failed move never partially updated the destination.
	Rewind func(g *Coupling) error
	// Rebuild returns the transfer's source and destination specs over
	// the shrunken coupling: redeclare the surviving processes' regions,
	// re-register objects, and return the specs ComputeSchedule needs.
	// A process outside one side returns nil for that side, exactly as
	// with ComputeSchedule.
	Rebuild func(g *Coupling) (src, dst *Spec, err error)
}

// Recovered reports how a MoveWithRecovery call completed.
type Recovered struct {
	// Res is the final (successful) move's result.
	Res MoveResult
	// Coupling is the coupling the final move ran over — the original
	// when no recovery was needed, the shrunken one otherwise.
	Coupling *Coupling
	// Schedule is the schedule the final move ran with.
	Schedule *Schedule
	// Retries is how many recovery rounds ran (0 = clean first try).
	Retries int
	// Dead lists the world ranks excluded by the final shrink.
	Dead []int
}

// MoveWithRecovery runs one move of a coupling and, if a peer dies
// mid-exchange, recovers and retries it over the survivors.  It is
// collective: every process of the coupling calls it with the same
// schedule, and run executes this process's half of the move (e.g.
// func(s *Schedule) MoveResult { return s.MoveRecv(obj) }).
//
// Each recovery round is: (1) an agreement collective over the current
// union, bounded by a deadline longer than the failure detector's lag,
// so every survivor learns some member saw a failure even though the
// failures are local; (2) a detector-settling sleep, after which every
// survivor reads the same dead set; (3) Coupling.Shrink; (4) the
// Rewind and Rebuild hooks; (5) ComputeScheduleReliable over the
// survivors; (6) the move again.  pol bounds the rounds (Attempts) and
// the per-collective deadline (Deadline; 0 derives one from the
// detector lag).
//
// Like ComputeScheduleReliable, the agreement is best-effort rather
// than atomic — a process whose own move and agreement both complete
// cleanly can declare success while a slower member retries.  Under
// the simulator's deterministic timing survivors stay in lockstep, and
// the elastic experiment (exp.ElasticFigure10) asserts the stronger
// property end to end.
func MoveWithRecovery(c *Coupling, sched *Schedule, method Method, run func(*Schedule) MoveResult, hooks RecoveryHooks, pol RetryPolicy) (*Recovered, error) {
	p := c.Union.Proc()
	attempts := pol.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	deadline := pol.Deadline
	if deadline == 0 {
		deadline = 4 * p.DetectionLag()
	}
	rec := &Recovered{Coupling: c, Schedule: sched}
	for round := 0; ; round++ {
		res := run(sched)
		rec.Res = res
		failed := !res.OK()
		if p.CrashFaults() {
			// Agreement: did any member's move fail?  The collective
			// itself can trip over the dead rank — count that as a
			// failure signal too.
			v := int64(0)
			if failed {
				v = 1
			}
			var any int64
			err := p.WithTimeout(deadline, func() {
				any = rec.Coupling.Union.AllreduceInt64(mpsim.OpMax, v)
			})
			failed = err != nil || any != 0
		}
		if !failed {
			return rec, nil
		}
		if !p.CrashFaults() {
			return rec, fmt.Errorf("core: move lost peers %v with no failure detector to recover with", res.FailedPeers)
		}
		if round+1 >= attempts {
			return rec, fmt.Errorf("core: move still failing after %d recovery rounds (dead ranks %v)", round, p.DeadRanks())
		}

		// Let the detector settle so every survivor reads the same dead
		// set, derive the shrunken group from it, and realign on a
		// barrier over the survivors: members exit the bounded
		// agreement at skewed times (detector-woken members early,
		// timed-out members a full deadline later), and the schedule
		// exchange's own deadlines assume members start together.
		sp := p.Span("group.shrink")
		p.Sleep(p.DetectionLag())
		dead := p.DeadRanks()
		g, err := rec.Coupling.Shrink(dead)
		if err != nil {
			sp.End(p.Clock())
			return rec, err
		}
		g.Union.Barrier()
		sp.End(p.Clock())
		rec.Coupling, rec.Dead, rec.Retries = g, dead, round+1

		if hooks.Rewind != nil {
			if err := hooks.Rewind(g); err != nil {
				return rec, fmt.Errorf("core: rewinding for recovery round %d: %w", round+1, err)
			}
		}
		if hooks.Rebuild == nil {
			return rec, fmt.Errorf("core: recovery needs a Rebuild hook to recompute the transfer over %d survivors", g.Union.Size())
		}
		src, dst, err := hooks.Rebuild(g)
		if err != nil {
			return rec, fmt.Errorf("core: rebuilding for recovery round %d: %w", round+1, err)
		}
		spr := p.Span("move.retry")
		sched, err = ComputeScheduleReliable(g, src, dst, method, RetryPolicy{Attempts: pol.Attempts, Deadline: deadline})
		spr.End(p.Clock())
		if err != nil {
			return rec, fmt.Errorf("core: recomputing schedule for recovery round %d: %w", round+1, err)
		}
		if rec.Schedule != nil && rec.Schedule.timeout > 0 {
			sched.SetMoveTimeout(rec.Schedule.timeout)
		}
		rec.Schedule = sched
	}
}
