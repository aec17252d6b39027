package mpsim

import (
	"fmt"
	"strings"
	"testing"
)

// testJoinPlan is a literal join schedule.
type testJoinPlan []JoinEvent

func (tp testJoinPlan) Joins(int) []JoinEvent { return tp }

func TestJoinLaunchesDormantRank(t *testing.T) {
	const joinAt = 0.01
	st := Run(Config{
		Machine: SP2(),
		Join:    testJoinPlan{{Rank: 2, At: joinAt}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			if p.Rank() == 2 {
				// A dormant rank's body starts at its join time.
				if p.Clock() < joinAt {
					panic(fmt.Sprintf("joiner launched at %g, want >= %g", p.Clock(), joinAt))
				}
				if got := p.AbsentRanks(); len(got) != 0 {
					panic(fmt.Sprintf("joiner sees AbsentRanks = %v, want none", got))
				}
				if p.JoinedAt(2) != joinAt {
					panic(fmt.Sprintf("JoinedAt(2) = %g, want %g", p.JoinedAt(2), joinAt))
				}
				return
			}
			// Before the join: rank 2 is absent, the live world is the
			// incumbents, and no membership change happened yet.
			if got := p.AbsentRanks(); len(got) != 1 || got[0] != 2 {
				panic(fmt.Sprintf("AbsentRanks = %v at t=0, want [2]", got))
			}
			if n := p.LiveWorld().Size(); n != 2 {
				panic(fmt.Sprintf("LiveWorld size %d before the join, want 2", n))
			}
			if g := p.GroupIncarnation(); g != 0 {
				panic(fmt.Sprintf("GroupIncarnation = %d before the join, want 0", g))
			}
			// After: membership is full and the incarnation advanced.
			p.SleepUntil(2 * joinAt)
			if got := p.AbsentRanks(); len(got) != 0 {
				panic(fmt.Sprintf("AbsentRanks = %v after the join, want none", got))
			}
			if n := p.LiveWorld().Size(); n != 3 {
				panic(fmt.Sprintf("LiveWorld size %d after the join, want 3", n))
			}
			if g := p.GroupIncarnation(); g != 1 {
				panic(fmt.Sprintf("GroupIncarnation = %d after the join, want 1", g))
			}
			if p.JoinedAt(0) != 0 {
				panic("initial member reports a nonzero join time")
			}
		}}},
	})
	if len(st.Joins) != 1 || st.Joins[0].Rank != 2 || st.Joins[0].At != joinAt {
		t.Fatalf("Joins = %v, want [{2 %g}]", st.Joins, joinAt)
	}
}

func TestJoinExpandMatchesLiveWorld(t *testing.T) {
	// The incumbents' Sub(live) before the join, Expand across it, and
	// every member's post-join LiveWorld must all agree — the
	// communication-free agreement elastic protocols build on.
	const joinAt = 0.005
	Run(Config{
		Machine: SP2(),
		Join:    testJoinPlan{{Rank: 3, At: joinAt}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 4, Body: func(p *Proc) {
			if p.Rank() != 3 {
				small := p.World().Sub([]int{0, 1, 2})
				if small.Size() != 3 {
					panic("pre-join Sub has the wrong size")
				}
				grown := small.Expand([]int{3})
				if grown.Size() != 4 {
					panic("Expand did not add the joiner")
				}
				p.SleepUntil(2 * joinAt)
				if u, ok := grown.RankOf(3); !ok || u != 3 {
					panic(fmt.Sprintf("Expand ranks the joiner %d, want 3", u))
				}
				// A message round over the expanded communicator
				// reaches the joiner.
				if p.Rank() == 0 {
					grown.Send(3, 7, []byte("welcome"))
				}
				return
			}
			// The joiner derives the same communicator with Sub over
			// the full membership it observes at launch.
			mine := p.World().Sub([]int{0, 1, 2, 3})
			p.SleepUntil(2 * joinAt)
			data, src := mine.Recv(0, 7)
			if string(data) != "welcome" || src != 0 {
				panic(fmt.Sprintf("joiner received %q from %d, want \"welcome\" from 0", data, src))
			}
		}}},
	})
}

func TestJoinSendToDormantPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send to a dormant rank did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "before it joined the world") {
			t.Fatalf("panic = %v, want a send-before-join diagnostic", r)
		}
	}()
	Run(Config{
		Machine: SP2(),
		Join:    testJoinPlan{{Rank: 1, At: 0.5}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 2, Body: func(p *Proc) {
			if p.Rank() == 0 {
				p.World().Send(1, 3, []byte("too early"))
			}
		}}},
	})
}

func TestJoinRankReducedModuloWorld(t *testing.T) {
	// Seed-derived plans target arbitrary ranks; the world reduces
	// them modulo its size so any plan fits any process count.
	st := Run(Config{
		Machine: SP2(),
		Join:    testJoinPlan{{Rank: 7, At: 0.002}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			p.SleepUntil(0.004)
		}}},
	})
	if len(st.Joins) != 1 || st.Joins[0].Rank != 1 {
		t.Fatalf("Joins = %v, want rank 7 %% 3 = 1", st.Joins)
	}
}

func TestJoinDormantRankCannotCrash(t *testing.T) {
	// A crash scheduled before a rank's join targets a rank that does
	// not exist yet; the fault is dropped, not deferred.
	st := Run(Config{
		Machine: SP2(),
		Join:    testJoinPlan{{Rank: 2, At: 0.01}},
		Crash:   testPlan{{Rank: 2, At: 0.005}},
		Programs: []ProgramSpec{{Name: "spmd", Procs: 3, Body: func(p *Proc) {
			p.SleepUntil(0.02)
			if got := p.DeadRanks(); len(got) != 0 {
				panic(fmt.Sprintf("DeadRanks = %v, want none", got))
			}
		}}},
	})
	if len(st.Crashes) != 0 {
		t.Fatalf("Crashes = %v, want none (target was dormant)", st.Crashes)
	}
	if len(st.Joins) != 1 {
		t.Fatalf("Joins = %v, want the rank to join anyway", st.Joins)
	}
}

func TestJoinDeterministicAcrossEngines(t *testing.T) {
	// The join timer rides the same heap as every other event, so the
	// one-shard and 4-shard runs must agree bit for bit.
	run := func(shards int) *Stats {
		return Run(Config{
			Machine: AlphaFarmATM(),
			Join:    testJoinPlan{{Rank: 3, At: 0.003}, {Rank: 2, At: 0.006}},
			Shards:  shards,
			Programs: []ProgramSpec{{Name: "spmd", Procs: 4, ProcsPerNode: 1, Body: func(p *Proc) {
				p.SleepUntil(0.01)
				// One post-join exchange so the run has traffic.
				peer := (p.Rank() + 1) % 4
				p.World().Send(peer, 5, []byte{byte(p.Rank())})
				data, _ := p.World().Recv((p.Rank()+3)%4, 5)
				if len(data) != 1 {
					panic("short message")
				}
			}}},
		})
	}
	oneShard, sharded := run(0), run(4)
	if oneShard.MakespanSeconds != sharded.MakespanSeconds {
		t.Errorf("makespan %g one shard vs %g sharded", oneShard.MakespanSeconds, sharded.MakespanSeconds)
	}
	if len(oneShard.Joins) != 2 || len(sharded.Joins) != 2 {
		t.Fatalf("join records: one shard %v, sharded %v, want 2 each", oneShard.Joins, sharded.Joins)
	}
	for i := range oneShard.Joins {
		if oneShard.Joins[i] != sharded.Joins[i] {
			t.Errorf("join %d: one shard %v, sharded %v", i, oneShard.Joins[i], sharded.Joins[i])
		}
	}
}
