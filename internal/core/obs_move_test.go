package core

import (
	"math"
	"runtime"
	"testing"

	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// moveWorld runs a 4-process single-program section move on the SP2
// cost model (non-zero packing and wire costs, so every phase bucket
// can accumulate time) and hands each rank's body the ready schedule
// and objects.
func moveWorld(t *testing.T, tr *obs.Tracer, body func(p *mpsim.Proc, sched *Schedule, src, dst *testObj)) {
	t.Helper()
	const nprocs, global = 4, 256
	srcIdx := seqIdx(5, 120, 2)
	dstIdx := seqIdx(40, 120, 1)
	st := mpsim.Run(mpsim.Config{
		Machine: mpsim.SP2(),
		Obs:     tr,
		Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: func(p *mpsim.Proc) {
			ctx := NewCtx(p, p.Comm())
			src := newTestObj(global, nprocs, 1, p.Rank())
			dst := newTestObj(global, nprocs, 1, p.Rank())
			src.fillDistinct(1000)
			sched, err := ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(srcIdx, 3)...), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(dstIdx, 2)...), Ctx: ctx},
				Cooperation)
			if err != nil {
				t.Errorf("ComputeSchedule: %v", err)
				return
			}
			body(p, sched, src, dst)
		}}},
	})
	if st == nil {
		t.Fatal("run produced no stats")
	}
}

// TestMovePhasesTelescope checks the MovePhases contract: the five
// buckets sum to exactly the virtual-clock advance across the move, on
// every rank, with or without a tracer attached (the accounting is
// always on).
func TestMovePhasesTelescope(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer()
		}
		moveWorld(t, tr, func(p *mpsim.Proc, sched *Schedule, src, dst *testObj) {
			for i := 0; i < 3; i++ {
				before := p.Clock()
				res := sched.Move(src, dst)
				cost := p.Clock() - before
				total := res.Phases.Total()
				if err := relErr(total, cost); err > 1e-12 {
					t.Errorf("traced=%v rank %d move %d: phase sum %g != clock advance %g (rel err %g)",
						traced, p.Rank(), i, total, cost, err)
				}
				if res.Elems == 0 && p.Rank() < 3 {
					t.Errorf("rank %d moved no elements", p.Rank())
				}
			}
		})
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// TestMoveSpanTotalsMatchPhases attaches a tracer and checks that the
// exported timeline agrees with the always-on MovePhases accounting:
// the per-name span totals for move.pack/ship/local/wait/unpack equal
// the summed MovePhases buckets across ranks, and the "move" umbrella
// span totals the whole cost.
func TestMoveSpanTotalsMatchPhases(t *testing.T) {
	tr := obs.NewTracer()
	var sum MovePhases
	moveWorld(t, tr, func(p *mpsim.Proc, sched *Schedule, src, dst *testObj) {
		res := sched.Move(src, dst)
		// The cooperative scheduler sequentializes bodies, so the
		// accumulation needs no lock.
		sum.Pack += res.Phases.Pack
		sum.Ship += res.Phases.Ship
		sum.Local += res.Phases.Local
		sum.Wait += res.Phases.Wait
		sum.Unpack += res.Phases.Unpack
	})
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open after the run", n)
	}
	byName := make(map[string]float64)
	for _, pt := range tr.PhaseTotals() {
		byName[pt.Name] = pt.Seconds
	}
	want := map[string]float64{
		"move.pack":   sum.Pack,
		"move.ship":   sum.Ship,
		"move.local":  sum.Local,
		"move.wait":   sum.Wait,
		"move.unpack": sum.Unpack,
		"move":        sum.Total(),
	}
	for name, w := range want {
		got := byName[name]
		// The phase buckets also hold instants between spans (request
		// posting, residual bookkeeping), so span time can undercount
		// the bucket but never exceed it; the umbrella must match
		// exactly.
		if name == "move" {
			if err := relErr(got, w); err > 1e-12 {
				t.Errorf("span total %q = %g, MovePhases say %g (rel err %g)", name, got, w, err)
			}
			continue
		}
		if got > w*(1+1e-12) {
			t.Errorf("span total %q = %g exceeds its MovePhases bucket %g", name, got, w)
		}
		if w > 0 && got == 0 {
			t.Errorf("phase %q accumulated %g but recorded no span time", name, w)
		}
	}
	if sum.Pack == 0 || sum.Wait == 0 || sum.Unpack == 0 {
		t.Errorf("SP2 move should exercise pack/wait/unpack; got %+v", sum)
	}
}

// TestMoveObsOffAllocFree pins the opt-in contract: with no tracer
// attached, repeated schedule reuse moves allocate nothing.  A
// single-process world makes the move a pure pack-free local copy with
// no scheduler hand-offs, so the malloc counter isolates the move path
// itself.
func TestMoveObsOffAllocFree(t *testing.T) {
	mpsim.RunSPMD(mpsim.Ideal(), 1, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		const global = 512
		src := newTestObj(global, 1, 1, 0)
		dst := newTestObj(global, 1, 1, 0)
		src.fillDistinct(1000)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(seqIdx(0, 300, 1), 3)...), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(seqIdx(100, 300, 1), 2)...), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst) // warm-up: grows the schedule's reusable buffers
		// Mallocs is process-global: pin GOMAXPROCS to 1 while measuring,
		// as testing.AllocsPerRun does, so no other goroutine's
		// allocations land inside the window.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			sched.Move(src, dst)
		}
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d != 0 {
			t.Errorf("50 obs-off reuse moves performed %d allocations; want 0", d)
		}
	})
}
