// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the design-choice ablations and a few substrate
// microbenchmarks.  The per-iteration custom metrics are virtual
// milliseconds on the simulated machines (the reproduction's
// measurements); ns/op is the host cost of running the simulation.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package metachaos_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"metachaos"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/exp"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table1()
		b.ReportMetric(t.Rows[0].Values[0], "inspector-vms@2")
		b.ReportMetric(t.Rows[1].Values[0], "executor-vms@2")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table2()
		b.ReportMetric(t.Rows[2].Values[0], "coop-sched-vms@2")
		b.ReportMetric(t.Rows[4].Values[0], "dup-sched-vms@2")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, _ := exp.Tables34()
		b.ReportMetric(t3.Rows[0].Values[0], "sched-vms@2x2")
		b.ReportMetric(t3.Rows[2].Values[2], "sched-vms@8x8")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t4 := exp.Tables34()
		b.ReportMetric(t4.Rows[0].Values[0], "copy-vms@2x2")
		b.ReportMetric(t4.Rows[2].Values[2], "copy-vms@8x8")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table5()
		b.ReportMetric(t.Rows[1].Values[0], "parti-copy-vms@2")
		b.ReportMetric(t.Rows[3].Values[0], "mc-copy-vms@2")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure10()
		b.ReportMetric(t.Rows[4].Values[3], "total-vms@8procs")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure11()
		b.ReportMetric(t.Rows[4].Values[3], "total-vms@8procs")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure12()
		b.ReportMetric(t.Rows[4].Values[3], "total-vms@8procs")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure13()
		b.ReportMetric(t.Rows[4].Values[3], "total-vms@8procs-20vec")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure14()
		last := len(t.Rows[4].Values) - 1
		b.ReportMetric(t.Rows[4].Values[last], "total-vms@20vec")
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure15()
		b.ReportMetric(t.Rows[0].Values[2], "breakeven-vecs@1client-8server")
	}
}

func BenchmarkAblationAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationAggregation()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "slowdown-x@2")
	}
}

func BenchmarkAblationTTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationTTable()
		b.ReportMetric(t.Rows[0].Values[0]/t.Rows[1].Values[0], "paged-vs-replicated-x@2")
	}
}

func BenchmarkAblationScheduleReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationScheduleReuse()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "rebuild-slowdown-x@2")
	}
}

func BenchmarkAblationRLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationRLE()
		b.ReportMetric(t.Rows[1].Values[0], "regular-wire-bytes")
	}
}

func BenchmarkAblationReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationReliability()
		b.ReportMetric(t.Rows[1].Values[0]/t.Rows[0].Values[0], "reliable-overhead-x@2")
	}
}

func BenchmarkAblationDtype(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.AblationDtype()
		b.ReportMetric(t.Rows[1].Values[0], "float64-wire-bytes/move")
		b.ReportMetric(t.Rows[1].Values[1]/t.Rows[1].Values[0], "float32-vs-float64-bytes-x")
	}
}

// Substrate microbenchmarks: host-side cost of the core machinery.

func BenchmarkScheduleBuildRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
			ctx := metachaos.NewCtx(p, p.Comm())
			src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
			dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
			_, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
				&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
					Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
				&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
					Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
				metachaos.Cooperation)
			if err != nil {
				panic(err)
			}
		})
	}
}

func BenchmarkMoveThroughput(b *testing.B) {
	// Host cost per moved element across a 4-process exchange.
	const elems = 128 * 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
			ctx := metachaos.NewCtx(p, p.Comm())
			src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
			dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
			sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
				&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
					Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
				&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
					Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
				metachaos.Duplication)
			if err != nil {
				panic(err)
			}
			sched.Move(src, dst)
		})
	}
	b.ReportMetric(float64(elems), "elems/move")
}

func BenchmarkMovePack(b *testing.B) {
	// The executor hot path in isolation: world and schedule are built
	// once outside the timer and one warm-up move grows every reusable
	// buffer (pool segments, message/request freelists), so allocs/op
	// exposes any per-move allocation in pack/ship/unpack.  With the
	// pooled data plane the steady state is 0 allocs/op — gated hard by
	// cmd/benchdiff.  ns/op is the host cost of one collective move
	// across all 4 processes.
	b.ReportAllocs()
	metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 4), p.Rank())
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
			metachaos.Duplication)
		if err != nil {
			panic(err)
		}
		// Warm-up: message-struct freelists migrate from senders to
		// receivers one struct per move and only reach their steady-state
		// population (and start spilling back through the world pool)
		// after a few hundred moves.
		for m := 0; m < 300; m++ {
			sched.Move(src, dst)
			p.Comm().Barrier()
		}
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
			// The barrier keeps the one-directional pipeline bounded: ranks
			// 0-1 only send and would otherwise run arbitrarily far ahead
			// of the receivers, defeating segment recycling.
			p.Comm().Barrier()
		}
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkMoveOverlap(b *testing.B) {
	// Block-to-cyclic 1-D redistribution over 8 processes: every process
	// exchanges a strided lane with every other, the worst case for a
	// fixed-order executor and the best case for arrival-order unpacking
	// of overlapped receives.  Same warm-schedule shape as MovePack, so
	// the 0 allocs/op gate also covers the strided staging path and the
	// SP2 machine's timer-driven delivery.
	const n = 1 << 15
	b.ReportAllocs()
	mpsim.RunSPMD(mpsim.SP2(), 8, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		bdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Block})
		if err != nil {
			panic(err)
		}
		cdist, err := distarray.NewDist(gidx.Shape{n}, []int{8}, []distarray.Kind{distarray.Cyclic})
		if err != nil {
			panic(err)
		}
		src := mbparti.MustNewArray(bdist, p.Rank(), 0)
		dst := mbparti.MustNewArray(cdist, p.Rank(), 0)
		all := core.NewSetOfRegions(gidx.NewSection([]int{0}, []int{n}))
		sched, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: mbparti.Library, Obj: src, Set: all, Ctx: ctx},
			&core.Spec{Lib: mbparti.Library, Obj: dst, Set: all, Ctx: ctx},
			core.Duplication)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst) // warm-up
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
		}
		p.Comm().Barrier()
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkMoveObsOff(b *testing.B) {
	// The observability layer's opt-in contract, stated as a benchmark:
	// with no tracer attached a reuse move allocates nothing (the 0
	// allocs/op here is asserted as a hard test in
	// internal/core.TestMoveObsOffAllocFree).  A single-process world
	// makes the move a pure local copy with no scheduler hand-offs, so
	// the counters isolate the instrumented move path itself.
	metachaos.RunSPMD(metachaos.Ideal(), 1, func(p *metachaos.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 1), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.Block2D(256, 256, 1), p.Rank())
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{128, 256})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{128, 0}, []int{256, 256})), Ctx: ctx},
			metachaos.Duplication)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst) // warm-up grows the schedule's reusable buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Move(src, dst)
		}
		b.StopTimer()
	})
}

func BenchmarkScheduleRepair(b *testing.B) {
	// Re-scheduling without the inspector against the collective
	// recompute it replaces: a 256-rank block redistribution whose
	// rank-17/18 boundary shifts by one element.  repair assembles rank
	// 17's schedule for the shifted routing from its route map
	// (NewScheduleFromRoutes) — pure local work, O(runs of the map), no
	// world; rebuild pays the full 256-process inspector collective for
	// the same class of transfer.
	const ranks = 256
	const blk = 64
	const n = ranks * blk

	even := make([]int, ranks)
	world := make([]int, ranks)
	moved := make([]int, ranks)
	for i := range even {
		even[i], world[i], moved[i] = blk, i, blk
	}
	// Destination boundaries sit half a block off the source's, so
	// every rank exchanges half its block with a neighbor; then the
	// rank-17/18 boundary shifts by one element.
	moved[0] = blk / 2
	moved[ranks-1] = blk + blk/2
	moved[17]--
	moved[18]++
	rmNew, err := metachaos.BlockRoutes(even, moved, world, world)
	if err != nil {
		b.Fatal(err)
	}

	// A throwaway world supplies the union communicator the schedule
	// binds to; the schedule itself assembles locally.
	var g *metachaos.Coupling
	var me int
	metachaos.RunSPMD(metachaos.Ideal(), ranks, func(p *metachaos.Proc) {
		if p.Rank() == 17 {
			g, me = metachaos.SingleProgram(p.Comm()), p.WorldRank()
		}
	})

	b.Run("repair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metachaos.NewScheduleFromRoutes(g, rmNew, metachaos.Float64, me); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		metachaos.RunSPMD(metachaos.Ideal(), ranks, func(p *metachaos.Proc) {
			ctx := metachaos.NewCtx(p, p.Comm())
			g := metachaos.SingleProgram(p.Comm())
			src := metachaos.NewHPFArray(metachaos.BlockVector(n, ranks), p.Rank())
			dst := metachaos.NewHPFArray(metachaos.BlockVector(n, ranks), p.Rank())
			for i := 0; i < b.N; i++ {
				_, err := metachaos.ComputeSchedule(g,
					&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
						Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0}, []int{n - blk/2})), Ctx: ctx},
					&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
						Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{blk / 2}, []int{n})), Ctx: ctx},
					metachaos.Cooperation)
				if err != nil {
					panic(err)
				}
			}
		})
	})
}

func BenchmarkChaosLookup(b *testing.B) {
	// Host cost of one collective translation-table lookup round
	// (16384 lookups over 4 processes).
	for i := 0; i < b.N; i++ {
		metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
			ctx := metachaos.NewCtx(p, p.Comm())
			var mine []int32
			for g := p.Rank(); g < 16384; g += 4 {
				mine = append(mine, int32(g))
			}
			arr, err := metachaos.NewChaosArray(ctx, mine)
			if err != nil {
				panic(err)
			}
			req := make([]int32, 4096)
			for k := range req {
				req[k] = int32((k*7 + p.Rank()) % 16384)
			}
			arr.Table().Lookup(ctx, req)
		})
	}
}

func BenchmarkGhostExchange(b *testing.B) {
	// Host cost of a 256x256 halo exchange over 4 processes, 10 steps.
	for i := 0; i < b.N; i++ {
		metachaos.RunSPMD(metachaos.Ideal(), 4, func(p *metachaos.Proc) {
			a, err := metachaos.NewMBPartiArray(metachaos.Block2D(256, 256, 4), p.Rank(), 1)
			if err != nil {
				panic(err)
			}
			gs, err := buildGhost(p, a)
			if err != nil {
				panic(err)
			}
			for s := 0; s < 10; s++ {
				gs.Exchange(p, a)
			}
		})
	}
}

func BenchmarkAlltoall(b *testing.B) {
	// Host cost of an 8-way alltoall of 4KB buffers, 10 rounds.
	for i := 0; i < b.N; i++ {
		metachaos.RunSPMD(metachaos.Ideal(), 8, func(p *metachaos.Proc) {
			bufs := make([][]byte, 8)
			for j := range bufs {
				bufs[j] = make([]byte, 4096)
			}
			for r := 0; r < 10; r++ {
				p.Comm().Alltoall(bufs)
			}
		})
	}
}

func BenchmarkExtensionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched, copyT := exp.ExtensionMatrix()
		// Headline: chaos-involving schedule vs pure-regular schedule.
		b.ReportMetric(sched.Rows[2].Values[0], "chaos-to-mbparti-sched-vms")
		b.ReportMetric(copyT.Rows[0].Values[1], "mbparti-to-hpf-copy-vms")
	}
}

// figure10ParallelBase stashes the GOMAXPROCS=1 cost of the scaling
// benchmark so later -cpu variants in the same process can report
// their speedup (go test runs -cpu variants sequentially).
var figure10ParallelBase struct {
	mu      sync.Mutex
	nsPerOp float64
}

// BenchmarkFigure10Parallel is the sharded-scheduler scaling
// benchmark: a 1152-rank (128-client, 1024-server) Figure-10-style
// coupled matvec.  Shard count follows GOMAXPROCS (the world is large
// enough to auto-shard), so running with -cpu 1,2,4 measures the
// parallel speedup of the simulator itself; each multi-core variant
// reports it as a speedup@N metric against the 1-cpu run.
func BenchmarkFigure10Parallel(b *testing.B) {
	cfg := exp.Figure10ScaleConfig{
		ClientProcs: 128, ServerProcs: 1024, Vectors: 8, Rows: 96, Band: 192,
	}
	var hash uint64
	for i := 0; i < b.N; i++ {
		r := exp.Figure10Scale(cfg)
		hash = r.ResultHash
		b.ReportMetric(r.Makespan*1e3, "makespan-vms@1024srv")
	}
	_ = hash
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	n := runtime.GOMAXPROCS(0)
	figure10ParallelBase.mu.Lock()
	if n == 1 {
		figure10ParallelBase.nsPerOp = ns
	}
	base := figure10ParallelBase.nsPerOp
	figure10ParallelBase.mu.Unlock()
	if base > 0 {
		b.ReportMetric(base/ns, fmt.Sprintf("speedup@%d", n))
	}
}
