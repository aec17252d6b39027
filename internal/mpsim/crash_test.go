package mpsim

import (
	"errors"
	"fmt"
	"testing"
)

// testPlan is a literal crash schedule.
type testPlan []CrashEvent

func (tp testPlan) Crashes(int) []CrashEvent { return tp }

// idleUntilKilled parks a rank in short sleeps until a crash fault
// claims it (the sleeps bound how far past the crash time it dies).
func idleUntilKilled(p *Proc) {
	for {
		p.Sleep(1e-3)
	}
}

// awaitDead polls until the failure detector declares rank dead.
func awaitDead(p *Proc, rank int) {
	for p.DeadSince(rank) < 0 {
		p.Sleep(1e-3)
	}
}

func TestCrashKillDetectAndFailFast(t *testing.T) {
	const crashAt = 0.005
	st := Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 2, At: crashAt}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			if p.Rank() == 2 {
				idleUntilKilled(p)
			}
			awaitDead(p, 2)
			if got := p.DeadRanks(); len(got) != 1 || got[0] != 2 {
				panic(fmt.Sprintf("DeadRanks = %v, want [2]", got))
			}
			if since := p.DeadSince(2); since != crashAt {
				panic(fmt.Sprintf("DeadSince(2) = %g, want %g", since, crashAt))
			}
			// Post-detection sends to the dead rank fail fast.
			err := p.WithTimeout(0, func() { p.World().Send(2, 9, []byte("x")) })
			if !errors.Is(err, ErrPeerDead) {
				panic(fmt.Sprintf("send to dead rank: err = %v, want ErrPeerDead", err))
			}
			var ne *NetError
			if !errors.As(err, &ne) || ne.Peer != 2 {
				panic(fmt.Sprintf("send to dead rank: peer not identified: %v", err))
			}
		}}},
	})
	if len(st.Crashes) != 1 {
		t.Fatalf("Crashes = %v, want one record", st.Crashes)
	}
	rec := st.Crashes[0]
	if rec.Rank != 2 || rec.At != crashAt {
		t.Errorf("crash record = %+v, want rank 2 at %g", rec, crashAt)
	}
	if rec.DetectedAt <= rec.At {
		t.Errorf("DetectedAt = %g, want > crash time %g", rec.DetectedAt, rec.At)
	}
	lag := DefaultDetector().Period + DefaultDetector().SuspectAfter
	if rec.DetectedAt > rec.At+lag+1e-9 {
		t.Errorf("DetectedAt = %g, want within detection lag %g of %g", rec.DetectedAt, lag, rec.At)
	}
	if rec.RestartAt != 0 {
		t.Errorf("RestartAt = %g, want 0 for a permanent crash", rec.RestartAt)
	}
	if fs := st.PerRank[0].FailedSends + st.PerRank[1].FailedSends; fs != 2 {
		t.Errorf("FailedSends = %d, want 2 (one fast-failed send per survivor)", fs)
	}
}

func TestCrashWakesBlockedReceiver(t *testing.T) {
	var gotErr error
	Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 2, At: 0.005}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			switch p.Rank() {
			case 2:
				idleUntilKilled(p)
			case 0:
				// Block with no deadline on a message the crashed rank
				// will never send; detection must wake us with
				// ErrPeerDead rather than leaving the run deadlocked.
				_, _, gotErr = p.World().RecvTimeout(2, 5, 0)
			}
		}}},
	})
	if !errors.Is(gotErr, ErrPeerDead) {
		t.Fatalf("blocked recv: err = %v, want ErrPeerDead", gotErr)
	}
	var ne *NetError
	if !errors.As(gotErr, &ne) || ne.Peer != 2 {
		t.Fatalf("blocked recv: peer not identified: %v", gotErr)
	}
}

func TestCrashWaitanyAndWaitallMidWait(t *testing.T) {
	var anyErr, allErr error
	var firstIdx int
	Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 2, At: 0.005}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			w := p.World()
			switch p.Rank() {
			case 2:
				idleUntilKilled(p)
			case 1:
				w.Send(0, 7, []byte("alive"))
			case 0:
				reqs := []*Request{w.Irecv(1, 7), w.Irecv(2, 7)}
				// The live peer's message completes first.
				firstIdx, anyErr = WaitanyTimeout(reqs, 0)
				if anyErr == nil {
					// The remaining receive is bound to the crashed rank:
					// Waitall blocks mid-wait until detection fails it.
					allErr = WaitallTimeout(reqs, 0)
				}
			}
		}}},
	})
	if anyErr != nil || firstIdx != 0 {
		t.Fatalf("Waitany = (%d, %v), want live peer's request 0", firstIdx, anyErr)
	}
	if !errors.Is(allErr, ErrPeerDead) {
		t.Fatalf("Waitall mid-wait: err = %v, want ErrPeerDead", allErr)
	}
}

func TestCrashRecvTimeoutRace(t *testing.T) {
	var early, late error
	Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 1, At: 0.005}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 1 {
				idleUntilKilled(p)
			}
			// Deadline shorter than the detection lag: the crash already
			// happened but is not yet detected, so the timeout wins.
			_, _, early = p.World().RecvTimeout(1, 5, 2e-4)
			// No deadline: detection wins and names the dead peer.
			_, _, late = p.World().RecvTimeout(1, 5, 0)
		}}},
	})
	if !errors.Is(early, ErrTimeout) {
		t.Fatalf("pre-detection recv: err = %v, want ErrTimeout", early)
	}
	if !errors.Is(late, ErrPeerDead) {
		t.Fatalf("post-detection recv: err = %v, want ErrPeerDead", late)
	}
}

func TestCrashCancelOnDeadPeer(t *testing.T) {
	Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 1, At: 0.005}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 1 {
				idleUntilKilled(p)
			}
			req := p.World().Irecv(1, 5)
			awaitDead(p, 1)
			// Cancelling a receive bound to an already-dead peer must be
			// an error-free no-op that completes the request.
			req.Cancel()
			if !req.Done() {
				panic("cancelled request not done")
			}
			if idx := Waitany([]*Request{req}); idx != -1 {
				panic(fmt.Sprintf("Waitany over cancelled request = %d, want -1", idx))
			}
		}}},
	})
}

func TestCrashShrinkWorldCollectives(t *testing.T) {
	sums := make([]int64, 4)
	st := Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 3, At: 0.004}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 4, Body: func(p *Proc) {
			if p.Rank() == 3 {
				idleUntilKilled(p)
			}
			awaitDead(p, 3)
			// Align on a common boundary so every survivor derives the
			// shrunken group from the same detector state.
			p.SleepUntil(0.02)
			shrunk := p.ShrinkWorld()
			if shrunk.Size() != 3 {
				panic(fmt.Sprintf("shrunk size = %d, want 3", shrunk.Size()))
			}
			if inc := p.GroupIncarnation(); inc != 1 {
				panic(fmt.Sprintf("GroupIncarnation = %d, want 1", inc))
			}
			shrunk.Barrier()
			sums[p.WorldRank()] = shrunk.AllreduceInt64(OpSum, int64(p.WorldRank()))
		}}},
	})
	for r := 0; r < 3; r++ {
		if sums[r] != 3 {
			t.Errorf("rank %d allreduce over shrunken group = %d, want 3", r, sums[r])
		}
	}
	if len(st.Crashes) != 1 || st.Crashes[0].Rank != 3 {
		t.Errorf("Crashes = %+v, want rank 3's record", st.Crashes)
	}
}

func TestCrashRestartIncarnation(t *testing.T) {
	const crashAt, restartAt = 0.005, 0.02
	var greeting string
	var secondLife int
	st := Run(Config{
		Machine: SP2(),
		Crash:   testPlan{{Rank: 1, At: crashAt, RestartAt: restartAt}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			w := p.World()
			if p.Rank() == 1 {
				if p.Incarnation() == 0 {
					idleUntilKilled(p)
				}
				secondLife = p.Incarnation()
				w.Send(0, 7, []byte("back"))
				return
			}
			for {
				data, _, err := w.RecvTimeout(1, 7, 0)
				if err == nil {
					greeting = string(data)
					return
				}
				if !errors.Is(err, ErrPeerDead) {
					panic(err)
				}
				// The peer is down; poll until its restart heals the
				// detector state and the retry succeeds.
				p.Sleep(5e-3)
			}
		}}},
	})
	if greeting != "back" {
		t.Fatalf("survivor received %q, want the restarted rank's message", greeting)
	}
	if secondLife != 1 {
		t.Errorf("restarted incarnation = %d, want 1", secondLife)
	}
	if len(st.Crashes) != 1 || st.Crashes[0].RestartAt != restartAt {
		t.Errorf("Crashes = %+v, want RestartAt %g", st.Crashes, restartAt)
	}
}

func TestCrashDeterministicReplay(t *testing.T) {
	run := func() (float64, []CrashRecord) {
		st := Run(Config{
			Machine: SP2(),
			Crash:   testPlan{{Rank: 2, At: 0.003}},
			Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
				if p.Rank() == 2 {
					idleUntilKilled(p)
				}
				awaitDead(p, 2)
				p.SleepUntil(0.02)
				shrunk := p.ShrinkWorld()
				shrunk.AllreduceInt64(OpSum, int64(p.WorldRank()))
			}}},
		})
		return st.MakespanSeconds, st.Crashes
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 {
		t.Errorf("makespan differs across replays: %g vs %g", m1, m2)
	}
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Errorf("crash records differ across replays: %v vs %v", c1, c2)
	}
}

// TestCrashZeroOverheadWithoutPlan guards the fault-free hot path: a
// run without a crash plan must allocate no crash state and record no
// crash history.
func TestCrashZeroOverheadWithoutPlan(t *testing.T) {
	st := RunSPMD(SP2(), 2, func(p *Proc) {
		if p.CrashFaults() {
			panic("CrashFaults true without a plan")
		}
		if p.DetectionLag() != 0 {
			panic("DetectionLag nonzero without a plan")
		}
		if p.DeadRanks() != nil {
			panic("DeadRanks nonempty without a plan")
		}
		if p.Rank() == 0 {
			p.World().Send(1, 3, []byte("hi"))
		} else {
			p.World().Recv(0, 3)
		}
	})
	if st.Crashes != nil {
		t.Errorf("Crashes = %v, want nil without a plan", st.Crashes)
	}
}

// TestCrashEveryRankEndsOrRestarts pins how a run ends when a crash
// kills its last live process, identically for one shard and several:
// without a restart the run simply ends at the crash; with a restart
// ahead the dead rank stays live and the run continues through it.
func TestCrashEveryRankEndsOrRestarts(t *testing.T) {
	run := func(shards int, plan testPlan) *Stats {
		return Run(Config{
			Machine: SP2(),
			Crash:   plan,
			Shards:  shards,
			Trace:   true,
			Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
				if p.Incarnation() == 0 {
					idleUntilKilled(p)
				}
				p.Sleep(1e-3)
			}}},
		})
	}
	for _, shards := range []int{1, 2} {
		st := run(shards, testPlan{{Rank: 0, At: 0.005}, {Rank: 1, At: 0.005}})
		if st.MakespanSeconds != 0.005 || len(st.Crashes) != 2 {
			t.Errorf("shards=%d, no restart: makespan %v, crashes %v; want the run to end at the crash", shards, st.MakespanSeconds, st.Crashes)
		}
		st = run(shards, testPlan{{Rank: 0, At: 0.005}, {Rank: 1, At: 0.005, RestartAt: 0.02}})
		if st.MakespanSeconds != 0.021 || st.Crashes[1].RestartAt != 0.02 {
			t.Errorf("shards=%d, restart ahead: makespan %v, crashes %v; want the restarted rank to finish at 0.021", shards, st.MakespanSeconds, st.Crashes)
		}
	}
}
