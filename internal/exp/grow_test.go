package exp

import (
	"testing"

	"metachaos/internal/faultsim"
	"metachaos/internal/obs"
)

// assertNoScheduleCollective fails when a traced run recorded a
// collective inspector span (sched.compute), or no spans at all — an
// empty trace would pass the first check without proving anything.
func assertNoScheduleCollective(t *testing.T, run string, tr *obs.Tracer) {
	t.Helper()
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Errorf("%s recorded no spans; the tracer is not attached", run)
		return
	}
	n := 0
	for _, v := range spans {
		if v.Name == "sched.compute" {
			n++
		}
	}
	if n != 0 {
		t.Errorf("%s recorded %d sched.compute spans, want 0", run, n)
	}
}

// TestElasticGrowBitIdentical is the scale-out tentpole's end-to-end
// assertion: a run that starts on 2 servers and grows to 4 mid-run —
// assembling its schedules from route maps instead of recomputing
// them collectively — must finish with exactly the
// ResultHash of a fault-free run that had all 4 servers from t=0.
// Checked fault-free and under the pinned "growth" chaos profile's
// message faults, on one shard and on four.
func TestElasticGrowBitIdentical(t *testing.T) {
	cfg := ElasticGrowConfig{StartProcs: 2, GrowProcs: 2, Iters: 5, Seed: chaosSeed(t, 11)}
	traced := cfg
	traced.Obs = obs.NewTracer()
	grown, clean := ElasticGrow(traced)

	if clean.ResultHash == 0 {
		t.Fatal("full-size reference run produced a zero result hash")
	}
	if grown.ResultHash != clean.ResultHash {
		t.Errorf("grown run's result hash %#x, want full-size %#x (bit-identical)",
			grown.ResultHash, clean.ResultHash)
	}
	if grown.FinalServers != cfg.StartProcs+cfg.GrowProcs {
		t.Errorf("finished with %d servers, want %d", grown.FinalServers, cfg.StartProcs+cfg.GrowProcs)
	}
	if grown.Grows < 1 {
		t.Error("no growth slot observed; joins never fired")
	}
	if len(grown.Joins) != cfg.GrowProcs {
		t.Errorf("join history %+v, want %d joins", grown.Joins, cfg.GrowProcs)
	}
	for _, j := range grown.Joins {
		if j.Rank <= cfg.StartProcs || j.Rank > cfg.StartProcs+cfg.GrowProcs {
			t.Errorf("join hit world rank %d, want a dormant server rank in (%d,%d]",
				j.Rank, cfg.StartProcs, cfg.StartProcs+cfg.GrowProcs)
		}
	}
	// Every schedule of the grown run, before and after each growth
	// slot, is assembled from a route map — never a collective build.
	assertNoScheduleCollective(t, "grown run", traced.Obs)
	if grown.Makespan <= clean.Makespan {
		t.Errorf("grown makespan %g not above full-size %g (small start costs throughput)",
			grown.Makespan, clean.Makespan)
	}

	// Same seed, fresh everything: identical outcome.
	grown2 := runElasticGrow(cfg)
	if grown2.ResultHash != grown.ResultHash || grown2.Makespan != grown.Makespan ||
		grown2.Grows != grown.Grows {
		t.Errorf("nondeterministic replay: hash %#x vs %#x, makespan %g vs %g, grows %d vs %d",
			grown2.ResultHash, grown.ResultHash, grown2.Makespan, grown.Makespan,
			grown2.Grows, grown.Grows)
	}

	// Four shards: bit-identical to one, and still no collective build.
	sharded := cfg
	sharded.Shards = 4
	sharded.Obs = obs.NewTracer()
	grownN := runElasticGrow(sharded)
	if grownN.ResultHash != grown.ResultHash || grownN.Makespan != grown.Makespan {
		t.Errorf("sharded run diverged: hash %#x vs one-shard %#x, makespan %g vs %g",
			grownN.ResultHash, grown.ResultHash, grownN.Makespan, grown.Makespan)
	}
	assertNoScheduleCollective(t, "4-shard grown run", sharded.Obs)

	// Under the pinned growth profile's message faults with reliable
	// transport: still bit-identical, on one shard and on four.
	faulty := cfg
	faulty.Fault = faultsim.Growth(cfg.Seed)
	grownF := runElasticGrow(faulty)
	if grownF.ResultHash != clean.ResultHash {
		t.Errorf("grown run under growth profile hashed %#x, want %#x (bit-identical)",
			grownF.ResultHash, clean.ResultHash)
	}
	faultyN := faulty
	faultyN.Shards = 4
	grownFN := runElasticGrow(faultyN)
	if grownFN.ResultHash != grownF.ResultHash || grownFN.Makespan != grownF.Makespan {
		t.Errorf("sharded faulty run diverged: hash %#x vs one-shard %#x, makespan %g vs %g",
			grownFN.ResultHash, grownF.ResultHash, grownFN.Makespan, grownF.Makespan)
	}
}

// TestChaosElasticGrow is the chaos-matrix entry (chaos.sh picks it up
// via -run Chaos): scale-out under seed-driven message faults must
// stay bit-identical to the full-size fault-free run and replay
// deterministically.
func TestChaosElasticGrow(t *testing.T) {
	seed := chaosSeed(t, 13)
	cfg := ElasticGrowConfig{
		StartProcs: 2, GrowProcs: 2, Iters: 5, Seed: seed,
		Fault: faultsim.Growth(seed),
	}
	traced := cfg
	traced.Obs = obs.NewTracer()
	grown, clean := ElasticGrow(traced)
	if clean.ResultHash == 0 {
		t.Fatal("full-size reference run produced a zero result hash")
	}
	if grown.ResultHash != clean.ResultHash {
		t.Errorf("result hash %#x under faults, want full-size fault-free %#x (bit-identical)",
			grown.ResultHash, clean.ResultHash)
	}
	if grown.Grows < 1 {
		t.Error("no growth slot observed; the growth profile must exercise the join path")
	}
	assertNoScheduleCollective(t, "grown run", traced.Obs)

	grown2 := runElasticGrow(cfg)
	if grown2.ResultHash != grown.ResultHash || grown2.Makespan != grown.Makespan {
		t.Errorf("nondeterministic replay: hash %#x vs %#x, makespan %g vs %g",
			grown2.ResultHash, grown.ResultHash, grown2.Makespan, grown.Makespan)
	}

	sharded := cfg
	sharded.Shards = 4
	sharded.Obs = obs.NewTracer()
	if grownN := runElasticGrow(sharded); grownN.ResultHash != grown.ResultHash {
		t.Errorf("4-shard run hashed %#x, want one-shard %#x", grownN.ResultHash, grown.ResultHash)
	}
	assertNoScheduleCollective(t, "4-shard grown run", sharded.Obs)
}

// TestElasticJoinsAlwaysHitDormantServers pins the join-schedule
// derivation: every seed must target only the dormant server world
// ranks (never the client or an initial member) and land inside the
// first two iteration slots, so the run always has iterations left to
// exercise the schedules assembled after the join.
func TestElasticJoinsAlwaysHitDormantServers(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, sp := range []int{1, 2, 8} {
			for _, gp := range []int{1, 2, 4} {
				for g, j := range ElasticJoins(seed, sp, gp) {
					if j.Rank != 1+sp+g {
						t.Fatalf("seed %d start %d: joiner %d got world rank %d, want %d",
							seed, sp, g, j.Rank, 1+sp+g)
					}
					lo, hi := elasticSetup, elasticSetup+2*elasticSlot
					if j.At <= lo || j.At >= hi {
						t.Fatalf("seed %d: join at %g outside (%g,%g)", seed, j.At, lo, hi)
					}
				}
			}
		}
	}
}
