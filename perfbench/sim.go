package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"metachaos/internal/exp"
	"metachaos/internal/mpsim"
)

// simConfig draws the sim-sharded run: a Figure 10 client/server
// coupled matvec on 128 clients and 1024 servers (1152 ranks, so the
// scheduler auto-shards) whose band shape varies with the seed while
// the per-run work (rows x band multiply-adds) stays about the same.
func simConfig(seed int64, tiny bool) exp.Figure10ScaleConfig {
	rng := rand.New(rand.NewSource(seed))
	rows := 80 + 8*rng.Intn(5)
	cfg := exp.Figure10ScaleConfig{
		ClientProcs: 128, ServerProcs: 1024, Vectors: 8,
		Rows: rows, Band: 18432 / rows,
	}
	if tiny {
		cfg.ClientProcs, cfg.ServerProcs, cfg.Vectors = 8, 256, 2
	}
	return cfg
}

// worldSetup starts the config's world with empty program bodies and
// tears it down: what a run pays for the world before any work.  It
// returns the set-up time and the time to the first body's entry.
func worldSetup(cfg exp.Figure10ScaleConfig) (setup, start time.Duration) {
	var once sync.Once
	t0 := time.Now()
	body := func(p *mpsim.Proc) { once.Do(func() { start = time.Since(t0) }) }
	mpsim.Run(mpsim.Config{
		Machine: mpsim.AlphaFarmATM(),
		Programs: []mpsim.ProgramSpec{
			{Name: "client", Procs: cfg.ClientProcs, ProcsPerNode: 1, Body: body},
			{Name: "server", Procs: cfg.ServerProcs, ProcsPerNode: 1, Body: body},
		},
	})
	return time.Since(t0), start
}

// runSim runs sim-sharded: an op is one full auto-sharded run, checked
// against a Shards: 1 reference of the same config (result hash and
// makespan must match bit for bit).
func runSim(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	sc := simConfig(cfg.seed, cfg.tiny)
	var starts []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		s, st := worldSetup(sc)
		o.setups = append(o.setups, s.Seconds())
		starts = append(starts, ms(st))
	}
	o.layer["mpsim.world_start_ms"] = median(starts)
	o.msgSizes = []int{sc.Rows * 8}

	var results []exp.Figure10ScaleResult
	cpu := startCPUMeter()
	gcm := startGCMeter()
	m0 := mallocs()
	loop := time.Now()
	for op := int64(0); time.Since(loop).Seconds() < cfg.seconds; op++ {
		t0 := time.Now()
		r := exp.Figure10Scale(sc)
		t1 := time.Now()
		o.lat = append(o.lat, ms(t1.Sub(t0)))
		results = append(results, r)
		if root := cfg.tr.add("op", t0, t1, -1, op, 0); root >= 0 {
			cfg.tr.add("exp.Figure10Scale", t0, t1, root, op, 0)
		}
	}
	o.busy = time.Since(loop).Seconds()
	o.mallocs = mallocs() - m0
	o.layer["mpsim.cpu_util"] = cpu.util()
	o.layer["runtime.gc_cpu_share"] = gcm.share()
	o.rssMB = peakRSSMB("self")

	// The reference: the serial scheduler on the same config.  A traced
	// run repeats it to time the sharding speed-up.
	ref := sc
	ref.Shards = 1
	refRuns := 1
	if cfg.tr != nil {
		refRuns = 3
	}
	var want exp.Figure10ScaleResult
	var serial []float64
	for i := 0; i < refRuns; i++ {
		t0 := time.Now()
		want = exp.Figure10Scale(ref)
		serial = append(serial, ms(time.Since(t0)))
	}
	if cfg.plant {
		want.ResultHash ^= 1
	}
	for _, r := range results {
		o.attempted++
		if r.ResultHash != want.ResultHash || r.Makespan != want.Makespan {
			o.failed++
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("sim-sharded: no run finished in %.1fs", cfg.seconds)
	}
	o.layer["mpsim.vtime_ms_per_op"] = want.Makespan * 1e3
	o.layer["mpsim.shard_speedup"] = median(serial) / quantile(o.lat, 0.5)
	return o, nil
}
