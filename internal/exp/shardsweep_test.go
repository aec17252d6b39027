package exp

import (
	"runtime"
	"testing"

	"metachaos/internal/faultsim"
)

// The sharded scheduler's hard invariant is host-parallelism
// independence: with a pinned shard count, a run must produce
// bit-identical virtual-time results no matter how many OS threads
// execute it.  The sweep pins seeds and crosses {fault-free, lossy,
// crashy} scenarios with the repo's coupled library pairings
// (Multiblock Parti client vs HPF server for the Figure-10 workload,
// HPF vs HPF for the elastic crash workload), comparing ResultHash and
// virtual makespan between GOMAXPROCS=1 and GOMAXPROCS=4.

// withGOMAXPROCS runs f at the given host parallelism and restores it.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

type sweepOutcome struct {
	hash     uint64
	makespan float64
}

func TestShardedDeterminismSweep(t *testing.T) {
	const shards = 4
	cases := []struct {
		name string
		run  func() sweepOutcome
	}{
		{"figure10/fault-free", func() sweepOutcome {
			b, st := runClientServer(CSConfig{
				ClientProcs: 2, ServerProcs: 8, Vectors: 4,
				Fingerprint: true, Shards: shards,
			})
			return sweepOutcome{b.ResultHash, st.MakespanSeconds}
		}},
		{"figure10/lossy", func() sweepOutcome {
			b, st := runClientServer(CSConfig{
				ClientProcs: 2, ServerProcs: 8, Vectors: 4,
				Fingerprint: true, Shards: shards,
				Fault:    faultsim.Mild(42).WithPartition(0.01, 0.05, 0),
				Reliable: true,
			})
			return sweepOutcome{b.ResultHash, st.MakespanSeconds}
		}},
		{"elastic/crashy", func() sweepOutcome {
			cfg := ElasticConfig{ServerProcs: 4, Iters: 6, Seed: 7, Shards: shards}
			c := ElasticCrash(cfg.Seed, cfg.ServerProcs)
			prof := (&faultsim.Profile{Seed: cfg.Seed}).WithCrash(c.Rank, c.At)
			res := runElastic(cfg, prof.CrashPlan())
			return sweepOutcome{res.ResultHash, res.Makespan}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var narrow, wide sweepOutcome
			withGOMAXPROCS(1, func() { narrow = tc.run() })
			withGOMAXPROCS(4, func() { wide = tc.run() })
			if narrow.hash == 0 {
				t.Fatal("run produced a zero result hash; fingerprinting broken")
			}
			if narrow != wide {
				t.Errorf("GOMAXPROCS=1 vs 4 diverged: hash %#x vs %#x, makespan %v vs %v",
					narrow.hash, wide.hash, narrow.makespan, wide.makespan)
			}
			// Replay at full width: same seed, bit-identical outcome.
			var replay sweepOutcome
			withGOMAXPROCS(4, func() { replay = tc.run() })
			if replay != wide {
				t.Errorf("replay diverged: hash %#x vs %#x, makespan %v vs %v",
					replay.hash, wide.hash, replay.makespan, wide.makespan)
			}
		})
	}
}

// TestFigure10GoldenUnshardedFallback pins the one-shard fallback: an
// attached observability tracer forces one shard no matter what
// MPSIM_SHARDS asks for, so the profiled Figure-10 run must still
// reproduce the pre-sharding golden trace byte for byte.
func TestFigure10GoldenUnshardedFallback(t *testing.T) {
	t.Setenv("MPSIM_SHARDS", "8")
	assertFigure10GoldenTrace(t)
}
