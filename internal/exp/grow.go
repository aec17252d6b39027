package exp

import (
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/faultsim"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
	"metachaos/internal/seclib"
)

// The elastic scale-OUT experiment: the Figure-10 client/server
// pairing started on a deliberately small server, with fresh server
// ranks joining the running world mid-computation — the inverse of
// elastic.go's crash-and-shrink.  Joiners start dormant
// (mpsim.Config.Join); when one enters, every participant — incumbent
// and joiner alike — re-derives the coupling over the enlarged group
// and obtains new schedules WITHOUT a collective inspector run: each
// computes the transfer's RouteMap locally from the two sides'
// distribution descriptors (pure arithmetic) and assembles its
// schedule from the map with NewScheduleFromRoutes.  Every process
// specializes the identical route map, so the resulting schedules
// interoperate lane for lane.
// The grow slot costs only the matrix re-ship (data), never an
// O(world) schedule collective.
//
// Because the server's MatVec allgathers the operand and reduces each
// row left-to-right, the committed iterates are bit-identical for any
// server size — so a run that starts small and grows must end with
// exactly the ResultHash of a run that had the full server from t=0.
// TestElasticGrowBitIdentical asserts that, fault-free and under the
// pinned "growth" chaos profile, on one shard and on four.
//
// Coordination reuses elastic.go's slotted scheme.  Membership is a
// pure function of virtual time (AbsentRanks), so all participants
// reading it at the same slot boundary agree without exchanging a
// message; a joiner's body starts at its join time and aligns to the
// next boundary, where the incumbents notice the absent count dropped
// and everyone rebuilds together.  Unlike a crash, a join never voids
// a slot — nobody the movers were talking to vanished — so an
// attempted iteration always commits at the next boundary.

// ElasticGrowConfig parameterizes one scale-out run.
type ElasticGrowConfig struct {
	// StartProcs is the initial active server size (≥ 1).
	StartProcs int
	// GrowProcs is how many server ranks join mid-run (≥ 1); the
	// simulated world is sized StartProcs+GrowProcs up front and the
	// joiners stay dormant until their seed-derived join times.
	GrowProcs int
	// Iters is the number of power-iteration steps to commit.
	Iters int
	// Seed drives the join schedule (see ElasticJoins).
	Seed uint64
	// Fault, when non-nil, injects message faults (the reliable
	// transport is enabled with it); joins still come from Seed.
	Fault *faultsim.Profile
	// Obs, when non-nil, records spans and metrics on the virtual clock.
	Obs *obs.Tracer
	// Shards pins the simulator's scheduler shard count.
	Shards int
}

// ElasticGrowResult is one scale-out run's outcome.
type ElasticGrowResult struct {
	// ResultHash fingerprints the final operand vector on the client.
	ResultHash uint64
	// FinalServers is the server size the run finished with.
	FinalServers int
	// Grows counts growth slots (boundaries where the membership
	// enlarged; two ranks joining within one slot count once).
	Grows int
	// Joins is the run's join history from the simulator.
	Joins []mpsim.JoinRecord
	// Makespan is the run's virtual-time length in seconds.
	Makespan float64
}

// ElasticJoins derives the seed-pinned join schedule: the growProcs
// highest server world ranks, dormant at start, enter the running
// world at seed-derived times inside the first two iteration slots.
func ElasticJoins(seed uint64, startProcs, growProcs int) []faultsim.Join {
	joins := make([]faultsim.Join, growProcs)
	for g := range joins {
		z := seed ^ uint64(g+1)*0xbf58476d1ce4e5b9
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := float64(z>>11) / (1 << 53)
		joins[g] = faultsim.Join{
			Rank: 1 + startProcs + g,
			At:   elasticSetup + elasticSlot*(0.1+1.5*frac),
		}
	}
	return joins
}

// ElasticGrow runs the scale-out experiment and its reference: a run
// that starts with StartProcs servers and grows to
// StartProcs+GrowProcs, and a fault-free run with the full server
// from t=0.  The grown run's ResultHash must equal the reference's.
func ElasticGrow(cfg ElasticGrowConfig) (grown ElasticGrowResult, clean ElasticResult) {
	clean = runElastic(ElasticConfig{
		ServerProcs: cfg.StartProcs + cfg.GrowProcs,
		Iters:       cfg.Iters, Seed: cfg.Seed, Shards: cfg.Shards,
	}, nil)
	grown = runElasticGrow(cfg)
	return grown, clean
}

// liveProgramRanks returns the program's world ranks that have joined
// the world by now, in world-rank order — a pure function of virtual
// time, identical on every process reading it at the same boundary.
func liveProgramRanks(p *mpsim.Proc, program string) []int {
	absent := map[int]bool{}
	for _, r := range p.AbsentRanks() {
		absent[r] = true
	}
	var out []int
	for _, r := range p.ProgramRanks(program) {
		if !absent[r] {
			out = append(out, r)
		}
	}
	return out
}

// growRoutes derives a transfer's route map locally from the two
// sides' distribution descriptors — pure arithmetic on every process,
// joiners included.
func growRoutes(ctx *core.Ctx, g *core.Coupling, srcDist, dstDist *distarray.Dist, sec gidx.Section) *core.RouteMap {
	mk := func(d *distarray.Dist) *core.Spec {
		return &core.Spec{
			Lib: hpfrt.Library,
			Obj: seclib.NewView(d, 0, core.Float64),
			Set: core.NewSetOfRegions(sec),
			Ctx: ctx,
		}
	}
	rm, err := core.ComputeRoutes(g, mk(srcDist), mk(dstDist))
	if err != nil {
		panic(err)
	}
	return rm
}

// growResolve obtains a schedule for the new route map without any
// communication: the cache, keyed on the group incarnation, serves it
// if this membership already built it, and otherwise it is assembled
// from the map.
func growResolve(cache *core.ScheduleCache, g *core.Coupling, key string, rm *core.RouteMap, myWorld int) *core.Schedule {
	s, err := cache.Get(key, core.Float64, func() (*core.Schedule, error) {
		return core.NewScheduleFromRoutes(g, rm, core.Float64, myWorld)
	})
	if err != nil {
		panic(err)
	}
	return s
}

// runElasticGrow executes one scale-out run.
func runElasticGrow(cfg ElasticGrowConfig) ElasticGrowResult {
	if cfg.StartProcs < 1 || cfg.GrowProcs < 1 {
		panic("exp: elastic grow needs at least 1 initial and 1 joining server process")
	}
	if cfg.Iters <= 0 {
		panic("exp: elastic grow needs at least 1 iteration")
	}
	var out ElasticGrowResult
	n := elasticN
	total := cfg.StartProcs + cfg.GrowProcs
	matSec := gidx.FullSection(gidx.Shape{n, n})
	vecSec := gidx.FullSection(gidx.Shape{n})
	boundary := func(slot int) float64 { return elasticSetup + float64(slot)*elasticSlot }
	joins := &faultsim.Profile{Seed: cfg.Seed, Joins: ElasticJoins(cfg.Seed, cfg.StartProcs, cfg.GrowProcs)}
	// A nil *Profile must stay a nil interface, or the net layer would
	// call Decide on a nil receiver.
	var inj mpsim.FaultInjector
	var rel *mpsim.Reliability
	if cfg.Fault != nil {
		inj = cfg.Fault
		rel = &mpsim.Reliability{}
	}

	st := mpsim.Run(mpsim.Config{
		Machine:  mpsim.AlphaFarmATM(),
		Fault:    inj,
		Reliable: rel,
		Join:     joins.JoinPlan(),
		Obs:      cfg.Obs,
		Shards:   cfg.Shards,
		Programs: []mpsim.ProgramSpec{
			{Name: "client", Procs: 1, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				ctx := core.NewCtx(p, p.Comm())
				a := hpfrt.NewArray(hpfrt.RowBlockMatrix(n, n, 1), 0)
				x := hpfrt.NewArray(hpfrt.BlockVector(n, 1), 0)
				y := hpfrt.NewArray(hpfrt.BlockVector(n, 1), 0)
				a.FillGlobal(func(c []int) float64 { return float64((c[0]*13+c[1]*7)%17) - 8 })
				x.FillGlobal(func(c []int) float64 { return 1 + float64(c[0]%7)/8 })

				cache := core.NewScheduleCache()
				var coupling *core.Coupling
				var matSched, vecSched *core.Schedule
				setup := func() {
					srv := liveProgramRanks(p, "server")
					var err error
					coupling, err = core.NewCoupling(p, p.ProgramRanks("client"), srv)
					if err != nil {
						panic(err)
					}
					cache.SetIncarnation(p.GroupIncarnation())
					ns := len(srv)
					matSched = growResolve(cache, coupling, "mat",
						growRoutes(ctx, coupling, hpfrt.RowBlockMatrix(n, n, 1), hpfrt.RowBlockMatrix(n, n, ns), matSec),
						p.WorldRank())
					vecSched = growResolve(cache, coupling, "vec",
						growRoutes(ctx, coupling, hpfrt.BlockVector(n, 1), hpfrt.BlockVector(n, ns), vecSec),
						p.WorldRank())
					matSched.MoveSend(a)
				}
				setup()

				it, slot, known, attempted := 0, 0, len(p.AbsentRanks()), false
				for {
					p.SleepUntil(boundary(slot))
					slot++
					if attempted {
						// A join never voids a slot — no peer the move
						// talked to vanished — so the step always commits.
						commitScale(x, y)
						it++
						attempted = false
					}
					if a := len(p.AbsentRanks()); a != known {
						known = a
						out.Grows++
						setup()
						continue
					}
					if it >= cfg.Iters {
						break
					}
					r1 := vecSched.MoveSend(x)
					r2 := vecSched.MoveReverseRecv(y)
					if !r1.OK() || !r2.OK() {
						panic(&mpsim.NetError{Op: "grow", Rank: p.WorldRank(),
							Peer: firstFailed(r1, r2), Err: mpsim.ErrPeerDead})
					}
					attempted = true
				}
				out.ResultHash = hashVector(x)
				out.FinalServers = coupling.Union.Size() - 1
			}},
			{Name: "server", Procs: total, ProcsPerNode: 1, Body: func(p *mpsim.Proc) {
				// A dormant rank's body launches at its join time; an
				// initial member's at virtual time zero.
				joiner := p.Clock() > 0

				cache := core.NewScheduleCache()
				var srvComm *mpsim.Comm
				var ctx *core.Ctx
				var coupling *core.Coupling
				var a, x, y *hpfrt.Array
				var matSched, vecSched *core.Schedule
				setup := func() {
					srv := liveProgramRanks(p, "server")
					srvComm = p.World().Sub(srv)
					ns, me := srvComm.Size(), srvComm.Rank()
					ctx = core.NewCtx(p, srvComm)
					a = hpfrt.NewArray(hpfrt.RowBlockMatrix(n, n, ns), me)
					x = hpfrt.NewArray(hpfrt.BlockVector(n, ns), me)
					y = hpfrt.NewArray(hpfrt.BlockVector(n, ns), me)
					var err error
					coupling, err = core.NewCoupling(p, p.ProgramRanks("client"), srv)
					if err != nil {
						panic(err)
					}
					cache.SetIncarnation(p.GroupIncarnation())
					matSched = growResolve(cache, coupling, "mat",
						growRoutes(ctx, coupling, hpfrt.RowBlockMatrix(n, n, 1), hpfrt.RowBlockMatrix(n, n, ns), matSec),
						p.WorldRank())
					vecSched = growResolve(cache, coupling, "vec",
						growRoutes(ctx, coupling, hpfrt.BlockVector(n, 1), hpfrt.BlockVector(n, ns), vecSec),
						p.WorldRank())
					matSched.MoveRecv(a)
				}

				it, slot, known, attempted := 0, 0, 0, false
				if joiner {
					// Align to the first boundary after the join and
					// force the membership branch there, so this rank's
					// first setup runs in lockstep with the incumbents'
					// regrow in the same slot.
					for boundary(slot) <= p.Clock() {
						slot++
					}
					known = -1
					// Replay the slotted protocol's public state from
					// t=0 to recover the incumbents' committed iteration
					// count.  Membership at every earlier boundary is a
					// pure function of the join plan (JoinedAt), so the
					// replay needs no message — without it this rank
					// would start at iteration 0, outlive the incumbents
					// and deadlock waiting for operands nobody sends.
					absentAt := func(t float64) int {
						a := 0
						for _, r := range p.ProgramRanks("server") {
							if p.JoinedAt(r) > t {
								a++
							}
						}
						return a
					}
					prev := absentAt(0)
					for j := 0; j < slot; j++ {
						if attempted {
							it++
							attempted = false
						}
						if a := absentAt(boundary(j)); a != prev {
							prev = a
							continue
						}
						if it >= cfg.Iters {
							break
						}
						attempted = true
					}
				} else {
					known = len(p.AbsentRanks())
					setup()
				}
				for {
					p.SleepUntil(boundary(slot))
					slot++
					if attempted {
						it++
						attempted = false
					}
					if a := len(p.AbsentRanks()); a != known {
						known = a
						setup()
						continue
					}
					if it >= cfg.Iters {
						break
					}
					if r := vecSched.MoveRecv(x); !r.OK() {
						panic(&mpsim.NetError{Op: "grow", Rank: p.WorldRank(),
							Peer: r.FailedPeers[0], Err: mpsim.ErrPeerDead})
					}
					if err := hpfrt.MatVec(ctx, a, x, y); err != nil {
						panic(err)
					}
					vecSched.MoveReverseSend(y)
					attempted = true
				}
			}},
		},
	})
	out.Joins = st.Joins
	out.Makespan = st.MakespanSeconds
	return out
}
