package mpsim

import (
	"runtime"
	"strings"
	"testing"
)

// ringBody is a multi-round neighbor exchange: every rank sends a
// payload around the ring each round and folds the received bytes into
// a running checksum charged as compute.  It exercises cross-node (and
// under sharding, cross-shard) traffic on every round.
func ringBody(rounds, bytes int) func(p *Proc) {
	return func(p *Proc) {
		buf := make([]byte, bytes)
		for i := range buf {
			buf[i] = byte(p.Rank() + i)
		}
		c := p.Comm()
		for r := 0; r < rounds; r++ {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			c.Send(next, r, buf)
			got, _ := c.Recv(prev, r)
			p.ChargeMemOps(len(got))
			buf[0] ^= got[0]
		}
	}
}

func ringConfig(shards int) Config {
	return Config{
		Machine: SP2(),
		Programs: []ProgramSpec{
			{Name: "ring", Procs: 16, ProcsPerNode: 1, Body: ringBody(20, 256)},
		},
		Trace:  true,
		Shards: shards,
	}
}

// TestShardedMatchesSerialRing pins the core sharding property on a
// cross-shard-heavy workload: a 4-shard run produces the same virtual
// makespan and the same trace timeline as a one-shard run.
func TestShardedMatchesSerialRing(t *testing.T) {
	oneShard := Run(ringConfig(1))
	sharded := Run(ringConfig(4))
	if sharded.MakespanSeconds != oneShard.MakespanSeconds {
		t.Errorf("makespan: sharded %v, one shard %v", sharded.MakespanSeconds, oneShard.MakespanSeconds)
	}
	if got, want := sharded.Trace.Timeline(), oneShard.Trace.Timeline(); got != want {
		t.Errorf("timelines diverge:\nsharded:\n%s\nserial:\n%s", got, want)
	}
	if sharded.TotalMsgs() != oneShard.TotalMsgs() {
		t.Errorf("msgs: sharded %d, one shard %d", sharded.TotalMsgs(), oneShard.TotalMsgs())
	}
}

// TestShardedGOMAXPROCSIndependent pins the hard determinism
// invariant: with the shard count fixed, the host thread count must
// not change any virtual-time result.
func TestShardedGOMAXPROCSIndependent(t *testing.T) {
	run := func(maxprocs int) (float64, string) {
		old := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(old)
		st := Run(ringConfig(4))
		return st.MakespanSeconds, st.Trace.Timeline()
	}
	m1, t1 := run(1)
	m4, t4 := run(4)
	if m1 != m4 || t1 != t4 {
		t.Errorf("GOMAXPROCS=1 vs 4 diverged: makespan %v vs %v", m1, m4)
	}
}

// TestShardedTinyLookahead stresses the window protocol: an explicit
// lookahead far below the machine's latency floor forces many tiny
// windows, which must not change any result.
func TestShardedTinyLookahead(t *testing.T) {
	oneShard := Run(ringConfig(1))
	cfg := ringConfig(4)
	cfg.lookahead = 1e-7 // SP2 latency is ~40us; thousands of windows
	tiny := Run(cfg)
	if tiny.MakespanSeconds != oneShard.MakespanSeconds {
		t.Errorf("makespan: tiny-lookahead %v, one shard %v", tiny.MakespanSeconds, oneShard.MakespanSeconds)
	}
	if got, want := tiny.Trace.Timeline(), oneShard.Trace.Timeline(); got != want {
		t.Error("tiny-lookahead timeline diverges from one shard")
	}
}

// TestIntraShardBypass pins the local-traffic fast path: a world of
// independent per-program rings with no cross-program traffic maps
// each program into (at most) one shard, so every message should take
// the immediate-enqueue path and match the one-shard run exactly.
func TestIntraShardBypass(t *testing.T) {
	mk := func(shards int) Config {
		progs := make([]ProgramSpec, 4)
		for i := range progs {
			progs[i] = ProgramSpec{
				Name: "p" + string(rune('0'+i)), Procs: 4, ProcsPerNode: 1,
				Body: ringBody(10, 128),
			}
		}
		return Config{Machine: SP2(), Programs: progs, Trace: true, Shards: shards}
	}
	oneShard := Run(mk(1))
	sharded := Run(mk(4))
	if sharded.MakespanSeconds != oneShard.MakespanSeconds {
		t.Errorf("makespan: sharded %v, one shard %v", sharded.MakespanSeconds, oneShard.MakespanSeconds)
	}
	if got, want := sharded.Trace.Timeline(), oneShard.Trace.Timeline(); got != want {
		t.Error("intra-shard timeline diverges from one shard")
	}
}

// TestResolveShards covers the Config/env/auto resolution ladder.
func TestResolveShards(t *testing.T) {
	w := &World{nodes: make([]*node, 16), procs: make([]*Proc, 16), machine: SP2()}
	if got := w.resolveShards(Config{Shards: -1}); got != 1 {
		t.Errorf("negative Shards: got %d, want 1 (one shard)", got)
	}
	if got := w.resolveShards(Config{Shards: 8}); got != 8 {
		t.Errorf("explicit Shards=8: got %d", got)
	}
	if got := w.resolveShards(Config{Shards: 64}); got != 16 {
		t.Errorf("Shards beyond nodes: got %d, want clamp to 16", got)
	}
	t.Setenv("MPSIM_SHARDS", "3")
	if got := w.resolveShards(Config{}); got != 3 {
		t.Errorf("MPSIM_SHARDS=3: got %d", got)
	}
	t.Setenv("MPSIM_SHARDS", "")
	// Small world, no env: stays on one shard.
	if got := w.resolveShards(Config{}); got != 1 {
		t.Errorf("small world auto: got %d, want 1", got)
	}
	// "0" is the explicit spelling of automatic resolution.
	t.Setenv("MPSIM_SHARDS", "0")
	if got := w.resolveShards(Config{}); got != 1 {
		t.Errorf("MPSIM_SHARDS=0 on a small world: got %d, want 1 (auto)", got)
	}
}

// TestResolveShardsRejectsBadEnv pins the fail-fast contract: a
// non-integer or negative MPSIM_SHARDS panics with a clear error
// instead of being silently ignored, even on runs that would have
// stayed on one shard anyway.
func TestResolveShardsRejectsBadEnv(t *testing.T) {
	w := &World{nodes: make([]*node, 16), procs: make([]*Proc, 16), machine: SP2()}
	expectPanic := func(env, wantSub string) {
		t.Helper()
		t.Setenv("MPSIM_SHARDS", env)
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("MPSIM_SHARDS=%q: resolveShards did not panic", env)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, wantSub) || !strings.Contains(msg, env) {
				t.Errorf("MPSIM_SHARDS=%q: panic %v, want message containing %q and the value", env, r, wantSub)
			}
		}()
		w.resolveShards(Config{})
	}
	expectPanic("four", "not an integer")
	expectPanic("3.5", "not an integer")
	expectPanic("-2", "negative shard count")
}

// TestSafeLookaheadFloor ensures the derived window is the LogGP
// latency floor plus the send overhead, and that a larger explicit
// override is clamped down to it.
func TestSafeLookaheadFloor(t *testing.T) {
	w := &World{machine: SP2()}
	safe := w.safeLookahead()
	want := w.machine.SendOverhead + w.machine.Latency
	if safe != want {
		t.Errorf("safeLookahead: got %v, want %v", safe, want)
	}
	if got := w.effectiveLookahead(safe * 10); got != safe {
		t.Errorf("oversized override not clamped: got %v, want %v", got, safe)
	}
	if got := w.effectiveLookahead(safe / 4); got != safe/4 {
		t.Errorf("small override not honored: got %v", got)
	}
}

// TestRunAllocs bounds the fixed cost of one Run: a one-shard run must
// allocate no more than the serial loop it replaced did (these bounds
// are that loop's counts on go1.24.0).  The coordinator runs the shard's
// window itself, so a one-shard run adds no worker goroutine, channels
// or second pair map.
func TestRunAllocs(t *testing.T) {
	t.Setenv("MPSIM_SHARDS", "") // these small worlds default to one shard
	for _, tc := range []struct{ n, max int }{{2, 40}, {8, 115}, {16, 209}} {
		got := testing.AllocsPerRun(20, func() {
			RunSPMD(SP2(), tc.n, func(p *Proc) { p.Comm().Barrier() })
		})
		if int(got) > tc.max {
			t.Errorf("n=%d: %v allocs per Run, want <= %d", tc.n, got, tc.max)
		}
	}
}
