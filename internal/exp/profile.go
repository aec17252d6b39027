package exp

import (
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// Profile entry points: the paper's workloads re-run with a tracer
// attached, for the golden-trace tests and cmd/mctrace.  Runs are
// deterministic, so a profile of a given configuration is a stable
// artifact — the same spans at the same virtual times every time.

// ProfileFigure10 runs one Figure-10 client/server configuration (a
// sequential client driving an HPF matrix-vector server) with tracing
// enabled, returning the tracer and the client's breakdown.  It runs on
// one shard whatever MPSIM_SHARDS says: testdata/figure10_trace.json
// pins the one-shard execution order, and this shape schedules
// differently on several shards (DESIGN.md, "Sharded scheduling").
func ProfileFigure10(serverProcs, vectors int) (*obs.Tracer, CSBreakdown) {
	tr := obs.NewTracer()
	b := RunClientServer(CSConfig{
		ClientProcs: 1,
		ServerProcs: serverProcs,
		Vectors:     vectors,
		Obs:         tr,
		Shards:      1,
	})
	return tr, b
}

// ProfileSection runs the Table-5 structured-mesh section copy (the
// top half of one distributed mesh onto the bottom half of another,
// cooperation method) on nprocs SP2 processes with tracing enabled,
// returning the tracer.  iters is the number of schedule reuses, so
// the trace shows one schedule computation amortized over many moves.
func ProfileSection(n, nprocs, iters int) *obs.Tracer {
	tr := obs.NewTracer()
	mpsim.Run(mpsim.Config{
		Machine:  mpsim.SP2(),
		Obs:      tr,
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: SectionMeshBody(n, nprocs, iters)}},
	})
	return tr
}

// SectionMeshBody is ProfileSection's SPMD body: the top half of an
// n x n Multiblock Parti mesh on nprocs processes copied onto the
// bottom half of another, one schedule reused for iters moves.
func SectionMeshBody(n, nprocs, iters int) func(p *mpsim.Proc) {
	srcSec := gidx.NewSection([]int{0, 0}, []int{n / 2, n})
	dstSec := gidx.NewSection([]int{n / 2, 0}, []int{n, n})
	return func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		dist := distarray.MustBlock2D(n, n, nprocs)
		src := mbparti.MustNewArray(dist, p.Rank(), 0)
		dst := mbparti.MustNewArray(dist, p.Rank(), 0)
		src.FillGlobal(func(c []int) float64 { return float64(c[0]*n + c[1]) })
		s, err := core.ComputeSchedule(core.SingleProgram(p.Comm()),
			&core.Spec{Lib: mbparti.Library, Obj: src, Set: core.NewSetOfRegions(srcSec), Ctx: ctx},
			&core.Spec{Lib: mbparti.Library, Obj: dst, Set: core.NewSetOfRegions(dstSec), Ctx: ctx},
			core.Cooperation)
		if err != nil {
			panic(err)
		}
		for it := 0; it < iters; it++ {
			s.Move(src, dst)
		}
	}
}
