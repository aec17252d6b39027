package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
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

// TestShardedProfile checks tracing on the sharded engine.  With a
// tracer attached, a run still splits into several shards, every
// rank's spans and every counter, gauge and histogram equal those of a
// reference run, and the sharded Chrome export is byte-identical at
// GOMAXPROCS 1 and 4.
//
// The lossy, reliable SPMD run that loses a rank is held to its
// one-shard run.  The Figure-10 profile shape (one client, two servers)
// is held to a two-shard run instead: its overlapped executor's
// Waitany sees messages in a different order on one shard than on
// several (DESIGN.md, "Sharded scheduling"), so its one-shard makespan
// differs with or without a tracer.  For that shape the test also
// checks that the tracer leaves the schedule alone: the traced run's
// makespan equals the untraced run's.
func TestShardedProfile(t *testing.T) {
	cases := []struct {
		name        string
		ref, shards int
		run         func(tr *obs.Tracer, shards int) *mpsim.Stats
	}{
		{"figure10", 2, 3, func(tr *obs.Tracer, shards int) *mpsim.Stats {
			return RunClientServerStats(CSConfig{ClientProcs: 1, ServerProcs: 2, Vectors: 1, Obs: tr, Shards: shards})
		}},
		{"spmd/lossy-reliable-crash", 1, 4, func(tr *obs.Tracer, shards int) *mpsim.Stats {
			const procs = 8
			prof := faultsim.Lossy(11).WithCrash(5, 0.008)
			body := SectionMeshBody(64, procs, 3)
			return mpsim.Run(mpsim.Config{
				Machine:  mpsim.SP2(),
				Fault:    prof,
				Reliable: &mpsim.Reliability{},
				Crash:    prof.CrashPlan(),
				Obs:      tr,
				Shards:   shards,
				Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: procs, Body: func(p *mpsim.Proc) {
					_ = p.WithTimeout(0.5, func() { body(p) })
				}}},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := obs.NewTracer()
			if st := tc.run(ref, tc.ref); st.Shards != tc.ref {
				t.Fatalf("reference run used %d shards, want %d", st.Shards, tc.ref)
			}
			var exports [2]bytes.Buffer
			var sharded *obs.Tracer
			var makespan float64
			for i, procs := range []int{1, 4} {
				withGOMAXPROCS(procs, func() {
					sharded = obs.NewTracer()
					st := tc.run(sharded, tc.shards)
					if st.Shards != tc.shards {
						t.Fatalf("GOMAXPROCS=%d: traced run used %d shard(s), want %d", procs, st.Shards, tc.shards)
					}
					makespan = st.MakespanSeconds
				})
				if err := sharded.WriteChromeTrace(&exports[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
				t.Error("sharded Chrome export differs between GOMAXPROCS 1 and 4")
			}
			if untraced := tc.run(nil, tc.shards).MakespanSeconds; untraced != makespan {
				t.Errorf("makespan %v with a tracer, %v without", makespan, untraced)
			}
			if g, w := sharded.OpenSpans(), ref.OpenSpans(); g != w {
				t.Errorf("%d spans left open, reference run %d", g, w)
			}
			want, got := spansByRank(ref), spansByRank(sharded)
			if len(got) != len(want) {
				t.Fatalf("spans on %d ranks, want %d", len(got), len(want))
			}
			for r := range want {
				if !reflect.DeepEqual(got[r], want[r]) {
					t.Errorf("rank %d: %d spans differ from the reference run's %d", r, len(got[r]), len(want[r]))
				}
			}
			if g, w := metricsDump(sharded.MetricsRegistry()), metricsDump(ref.MetricsRegistry()); g != w {
				t.Errorf("metrics differ from the reference run:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}

// spansByRank splits a tracer's spans into per-rank sequences in
// record order.
func spansByRank(tr *obs.Tracer) map[int][]obs.SpanView {
	out := map[int][]obs.SpanView{}
	for _, v := range tr.Spans() {
		out[v.Rank] = append(out[v.Rank], v)
	}
	return out
}

// metricsDump renders every counter, gauge and histogram of a registry.
func metricsDump(m *obs.Metrics) string {
	var b strings.Builder
	for _, name := range m.CounterNames() {
		fmt.Fprintf(&b, "counter %s %d\n", name, m.Counter(name).Value())
	}
	for _, name := range m.GaugeNames() {
		v, ok := m.Gauge(name).Value()
		fmt.Fprintf(&b, "gauge %s %v %v\n", name, v, ok)
	}
	for _, name := range m.HistogramNames() {
		h := m.Histogram(name, nil)
		bounds, counts := h.Buckets()
		fmt.Fprintf(&b, "histogram %s %d %v %v %v\n", name, h.Count(), h.Sum(), bounds, counts)
	}
	return b.String()
}
