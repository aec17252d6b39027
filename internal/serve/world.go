package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"metachaos/internal/codec"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
	"metachaos/internal/seclib"
)

// The resident world.  mpsim worlds run their program bodies to
// completion, so a daemon cannot "call into" a world per request.
// Instead the server keeps one long-running world per coupling shape
// (source procs, destination procs); its union-rank-0 body blocks on a
// real Go channel pulling batches of tenant commands.  Blocking a body
// on external input is safe: the cooperative scheduler is waiting for
// the running proc's next simulated operation, every other rank is
// parked in the Bcast below, and no virtual event is pending — the
// world simply holds still until the next batch arrives.  Rank 0 then
// broadcasts the encoded batch through the simulated network, every
// rank executes the same deterministic command stream, and rank 0
// hands each op's result back on a buffered reply channel.
//
// Per-rank core.ScheduleCaches live in the body for the world's whole
// life, which is the point of the service: tenant B declaring the
// distribution pair tenant A already coupled gets A's schedules warm.

// worldKey is the coupling shape a resident world serves.
type worldKey struct {
	srcProcs, dstProcs int
}

// Command codes inside a broadcast batch.
const (
	cmdOpen     = 1 // build objects + schedule for a new coupling handle
	cmdMove     = 2 // execute one data move on an open handle
	cmdClose    = 3 // drop a handle (schedules stay cached)
	cmdShutdown = 4 // end the batch loop; the world runs to completion
)

// op is one tenant command in flight to a resident world.
type op struct {
	cmd    int
	handle int64

	// cmdOpen
	src, dst DistSpec

	// cmdMove
	moveKind int
	seed     int64
	flags    int
	payload  []float64

	// reply, buffered cap 1, is written once by the world's rank 0
	// (leader); only ops submitted through runner.do carry one.
	reply chan opReply
}

// opReply is the leader's answer to one op.
type opReply struct {
	err    error
	warm   bool // cmdOpen: the schedule came out of the shared cache
	routed bool // cmdOpen: assembled from the pair's route map, no collective
	hash   uint64
	elems  int
	cost   float64 // virtual seconds the op took on the leader
	data   []float64
	hits   int // leader-rank cumulative schedule-cache counters
	miss   int
	evict  int // leader-rank cumulative schedule-cache evictions
}

// runnerConfig parameterizes one resident-world incarnation.
type runnerConfig struct {
	key      worldKey
	flush    time.Duration // batching window; 0 dispatches every op immediately
	maxBatch int           // ops per broadcast
	gen      int           // incarnation ordinal (0 = first world for this key)
	panicAt  int           // >0: every rank panics at its panicAt'th batch (chaos hook)
	cacheCap int           // per-rank ScheduleCache entry bound; 0 = unbounded
}

// runner owns one resident world: the dispatcher goroutine batching
// submissions, and the goroutine blocked in mpsim.Run.
type runner struct {
	cfg runnerConfig
	key worldKey

	submit  chan *op
	batches chan []*op
	quit    chan struct{} // closes the dispatcher on clean shutdown
	done    chan struct{} // closed when the world goroutine exits

	mu      sync.Mutex
	failure error // set before done closes when the world panicked

	// onBatch, when set, observes each dispatched batch size.
	onBatch func(ops int)
}

// newRunner starts a resident world.
func newRunner(cfg runnerConfig) *runner {
	if cfg.maxBatch < 1 {
		cfg.maxBatch = 1
	}
	r := &runner{
		cfg:     cfg,
		key:     cfg.key,
		submit:  make(chan *op),
		batches: make(chan []*op, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.dispatch()
	go r.run()
	return r
}

// run executes the world to completion, converting a simulation panic
// into ErrWorldFailed for everyone waiting on this runner.  Shards is
// left on automatic: small worlds run as one shard, soak-scale worlds
// (≥256 union ranks) as several — the leader blocking on the batch
// channel is safe either way, because a proc waiting on external input
// is running (not Recv-blocked), so the scheduler's deadlock detector
// cannot trip on it.
func (r *runner) run() {
	defer close(r.done)
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			r.failure = fmt.Errorf("%w: %v", ErrWorldFailed, v)
			r.mu.Unlock()
		}
	}()
	mpsim.Run(mpsim.Config{
		Machine: mpsim.SP2(),
		Programs: []mpsim.ProgramSpec{
			{Name: "src", Procs: r.key.srcProcs, ProcsPerNode: 1, Body: r.body},
			{Name: "dst", Procs: r.key.dstProcs, ProcsPerNode: 1, Body: r.body},
		},
	})
}

// failErr is the error for ops cut off by the world ending.
func (r *runner) failErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failure != nil {
		return r.failure
	}
	return ErrShuttingDown
}

// failed reports whether the world is gone.
func (r *runner) failed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// do submits one op and waits for the leader's reply.
func (r *runner) do(o *op) (opReply, error) {
	o.reply = make(chan opReply, 1)
	select {
	case r.submit <- o:
	case <-r.done:
		return opReply{}, r.failErr()
	}
	select {
	case rep := <-o.reply:
		return rep, rep.err
	case <-r.done:
		return opReply{}, r.failErr()
	}
}

// stop shuts the resident world down and waits for it to exit.
func (r *runner) stop() {
	o := &op{cmd: cmdShutdown, reply: make(chan opReply, 1)}
	select {
	case r.submit <- o:
	case <-r.done:
	}
	<-r.done
	close(r.quit)
}

// dispatch coalesces submissions into batches: the first op opens a
// flush window, further ops join until the window expires or the batch
// is full.  Small moves from many tenants ride one broadcast.
func (r *runner) dispatch() {
	for {
		var first *op
		select {
		case first = <-r.submit:
		case <-r.done:
			return
		case <-r.quit:
			return
		}
		batch := []*op{first}
		if first.cmd != cmdShutdown && r.cfg.flush > 0 {
			timer := time.NewTimer(r.cfg.flush)
		collect:
			for len(batch) < r.cfg.maxBatch {
				select {
				case o := <-r.submit:
					batch = append(batch, o)
					if o.cmd == cmdShutdown {
						break collect
					}
				case <-timer.C:
					break collect
				case <-r.done:
					break collect
				}
			}
			timer.Stop()
		}
		if r.onBatch != nil {
			r.onBatch(len(batch))
		}
		select {
		case r.batches <- batch:
		case <-r.done:
			err := r.failErr()
			for _, o := range batch {
				if o.reply != nil {
					o.reply <- opReply{err: err}
				}
			}
			return
		}
	}
}

// encodeBatch serializes a batch for the in-world broadcast.
func encodeBatch(batch []*op) []byte {
	var w codec.Writer
	w.PutInt32(int32(len(batch)))
	for _, o := range batch {
		w.PutInt32(int32(o.cmd))
		w.PutInt64(o.handle)
		switch o.cmd {
		case cmdOpen:
			putSpec(&w, &o.src)
			putSpec(&w, &o.dst)
		case cmdMove:
			w.PutInt32(int32(o.moveKind))
			w.PutInt64(o.seed)
			w.PutInt32(int32(o.flags))
			w.PutFloat64s(o.payload)
		}
	}
	return w.Bytes()
}

// decodeBatch rebuilds the batch on non-leader ranks.
func decodeBatch(enc []byte) []*op {
	r := codec.NewReader(enc)
	n := int(r.Int32())
	batch := make([]*op, n)
	for i := range batch {
		o := &op{cmd: int(r.Int32()), handle: r.Int64()}
		switch o.cmd {
		case cmdOpen:
			o.src = readSpec(r)
			o.dst = readSpec(r)
		case cmdMove:
			o.moveKind = int(r.Int32())
			o.seed = r.Int64()
			o.flags = int(r.Int32())
			o.payload = r.Float64s()
		}
		batch[i] = o
	}
	return batch
}

// resident is one rank's state for one open coupling handle.
type resident struct {
	isSrc bool
	side  side
	sched *core.Schedule
}

// body is the SPMD function every rank of the resident world runs: a
// batch loop over broadcast command streams.  All state that must
// agree across ranks (open handles, cache contents) is driven by the
// identical decoded batches, so it stays consistent by construction.
func (r *runner) body(p *mpsim.Proc) {
	coupling, err := core.CoupleByName(p, "src", "dst")
	if err != nil {
		panic(err)
	}
	ctx := core.NewCtx(p, p.Comm())
	cache := core.NewScheduleCache()
	cache.SetIncarnation(p.GroupIncarnation())
	cache.SetLimit(r.cfg.cacheCap)
	leader := coupling.Union.Rank() == 0
	open := make(map[int64]*resident)
	batches := 0
	for {
		var batch []*op
		if leader {
			batch = <-r.batches
			// The encoded batch goes down the broadcast tree as a
			// scatter-gather payload: one child-count's worth of sends
			// reference the same bytes, no per-send flatten.
			pay := p.BufPool().GetPayload()
			pay.AddView(encodeBatch(batch))
			coupling.Union.BcastPayload(0, pay)
			pay.Release()
		} else {
			batch = decodeBatch(coupling.Union.Bcast(0, nil))
		}
		batches++
		if r.cfg.panicAt > 0 && batches == r.cfg.panicAt {
			// Injected world failure (Options.WorldPanic).  Every rank
			// panics at the same point after the broadcast, so all procs
			// die together and the world tears down without tripping
			// deadlock detection; the batch's ops are never answered and
			// their waiters get ErrWorldFailed from runner.done closing.
			panic(fmt.Sprintf("injected world panic at batch %d (incarnation %d)", batches, r.cfg.gen))
		}
		for _, o := range batch {
			if o.cmd == cmdShutdown {
				if leader && o.reply != nil {
					o.reply <- opReply{}
				}
				return
			}
			t0 := p.Clock()
			var rep opReply
			switch o.cmd {
			case cmdOpen:
				rep = execOpen(p, ctx, coupling, cache, open, o)
			case cmdMove:
				rep = execMove(p, coupling, open, o)
			case cmdClose:
				delete(open, o.handle)
			}
			if leader && o.reply != nil {
				rep.cost = p.Clock() - t0
				rep.hits, rep.miss = cache.Counters()
				rep.evict = cache.Evictions()
				o.reply <- rep
			}
		}
	}
}

// routeSpec builds a descriptor-only core.Spec for one side of a
// coupling: the broadcast carries both DistSpecs, so every rank can
// construct both descriptors without owning either side's data, which
// is what lets ComputeRoutes run locally.  Only the regular-section
// libraries support descriptor-only views (their serve layouts all use
// halo 0, matching the views); other specs return nil and the open
// builds its schedule with the collective inspector.
func routeSpec(ctx *core.Ctx, spec *DistSpec) *core.Spec {
	var lib core.Library
	switch spec.Library {
	case "hpfrt":
		lib = hpfrt.Library
	case "mbparti":
		lib = mbparti.Library
	default:
		return nil
	}
	dist, err := distFor(spec)
	if err != nil {
		return nil
	}
	return &core.Spec{
		Lib: lib,
		Obj: seclib.NewView(dist, 0, spec.elem()),
		Set: core.NewSetOfRegions(gidx.FullSection(gidx.Shape(spec.Shape))),
		Ctx: ctx,
	}
}

// execOpen builds this rank's side of the coupling and resolves its
// schedule through the shared cache.  The cache key is identical on
// every rank, so either all ranks hit (no communication) or all ranks
// build together.  On a miss, a route-capable pair (both sides hpfrt
// or mbparti) derives its route map locally from the two broadcast
// descriptors and assembles its schedule from the map, with no
// collective at all; any other pair runs the collective inspector.
func execOpen(p *mpsim.Proc, ctx *core.Ctx, coupling *core.Coupling,
	cache *core.ScheduleCache, open map[int64]*resident, o *op) opReply {
	isSrc := p.Program() == "src"
	spec := &o.src
	if !isSrc {
		spec = &o.dst
	}
	sd, err := buildSide(spec, p.Rank())
	if err != nil {
		return opReply{err: err}
	}
	hits0, _ := cache.Counters()
	var routed bool
	sched, err := cache.Get(PairKey(&o.src, &o.dst), o.src.elem(), func() (*core.Schedule, error) {
		if srcRS, dstRS := routeSpec(ctx, &o.src), routeSpec(ctx, &o.dst); srcRS != nil && dstRS != nil {
			rm, err := core.ComputeRoutes(coupling, srcRS, dstRS)
			if err != nil {
				return nil, err
			}
			routed = true
			return core.NewScheduleFromRoutes(coupling, rm, o.src.elem(), p.WorldRank())
		}
		cs := &core.Spec{Lib: sd.lib, Obj: sd.obj, Set: sd.set, Ctx: ctx}
		if isSrc {
			return core.ComputeSchedule(coupling, cs, nil, core.Cooperation)
		}
		return core.ComputeSchedule(coupling, nil, cs, core.Cooperation)
	})
	if err != nil {
		return opReply{err: err}
	}
	hits1, _ := cache.Counters()
	open[o.handle] = &resident{isSrc: isSrc, side: sd, sched: sched}
	return opReply{warm: hits1 > hits0, routed: routed, elems: sched.Elems()}
}

// execMove runs one data move on an open handle: fill the sending
// side, execute the schedule, then gather the landing side's contents
// to the leader for fingerprinting (and, when asked, the data itself).
func execMove(p *mpsim.Proc, coupling *core.Coupling, open map[int64]*resident, o *op) opReply {
	res, ok := open[o.handle]
	if !ok {
		return opReply{err: fmt.Errorf("%w: handle %d", ErrUnknownCoupling, o.handle)}
	}
	sd, sched := res.side, res.sched
	words := sd.spec.words()
	fill := func() {
		if o.flags&flagHasPayload != 0 {
			sd.fill(func(pos, wd int) float64 { return o.payload[pos*words+wd] })
		} else {
			sd.fill(func(pos, wd int) float64 { return fillValue(o.seed, pos, wd) })
		}
	}
	switch o.moveKind {
	case OpMove, OpMoveAdd:
		if res.isSrc {
			fill()
			if o.moveKind == OpMove {
				sched.MoveSend(sd.obj)
			} else {
				sched.MoveAddSend(sd.obj)
			}
		} else if o.moveKind == OpMove {
			sched.MoveRecv(sd.obj)
		} else {
			sched.MoveAddRecv(sd.obj)
		}
	case OpMoveReverse:
		if res.isSrc {
			sched.MoveReverseRecv(sd.obj)
		} else {
			fill()
			sched.MoveReverseSend(sd.obj)
		}
	default:
		return opReply{err: fmt.Errorf("%w: move kind %d", ErrBadSpec, o.moveKind)}
	}

	// The landing side is the destination, except for reverse moves.
	landing := res.isSrc == (o.moveKind == OpMoveReverse)
	var w codec.Writer
	if landing {
		sd.read(func(pos int, vals []float64) {
			w.PutInt32(int32(pos))
			for _, v := range vals {
				w.PutFloat64(v)
			}
		})
	}
	parts := coupling.Union.Gather(0, w.Bytes())
	rep := opReply{elems: sched.Elems()}
	if coupling.Union.Rank() == 0 {
		h := fnv.New64a()
		for _, part := range parts {
			h.Write(part)
		}
		rep.hash = h.Sum64()
		if o.flags&flagWantData != 0 {
			data := make([]float64, sched.Elems()*words)
			for _, part := range parts {
				rd := codec.NewReader(part)
				for rd.Remaining() > 0 {
					pos := int(rd.Int32())
					for wd := 0; wd < words; wd++ {
						data[pos*words+wd] = rd.Float64()
					}
				}
			}
			rep.data = data
		}
	}
	return rep
}

// side is one rank's object on one side of a coupling, plus the
// layout-specific accessors the executor needs: deterministic owned
// iteration by global linearization position.
type side struct {
	spec DistSpec
	lib  core.Library
	obj  core.DistObject
	set  *core.SetOfRegions
	// fill sets every owned element: word wd of the element at global
	// position pos gets v(pos, wd).
	fill func(v func(pos, wd int) float64)
	// read visits every owned element in ascending position order.
	read func(f func(pos int, vals []float64))
}

// buildSide constructs rank's portion of the object a spec declares.
func buildSide(spec *DistSpec, rank int) (side, error) {
	sd := side{spec: *spec}
	switch spec.Library {
	case "pcxxrt":
		c, err := pcxxrt.NewCollection(spec.Shape[0], spec.Procs, spec.words(), rank)
		if err != nil {
			return side{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		sd.lib = pcxxrt.Library
		sd.obj = c
		sd.set = core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: 0, Hi: spec.Shape[0], Step: 1})
		sd.fill = func(v func(pos, wd int) float64) {
			c.ForEachOwned(func(i int, elem []float64) {
				for wd := range elem {
					elem[wd] = v(i, wd)
				}
			})
		}
		sd.read = func(f func(pos int, vals []float64)) {
			c.ForEachOwned(f)
		}
		return sd, nil
	case "hpfrt", "mbparti":
		dist, err := distFor(spec)
		if err != nil {
			return side{}, err
		}
		var get func(coords []int) float64
		var set func(coords []int, v float64)
		if spec.Library == "hpfrt" {
			a := hpfrt.NewArray(dist, rank)
			sd.lib, sd.obj, get, set = hpfrt.Library, a, a.Get, a.Set
		} else {
			a := mbparti.MustNewArray(dist, rank, 0)
			sd.lib, sd.obj, get, set = mbparti.Library, a, a.Get, a.Set
		}
		shape := gidx.Shape(spec.Shape)
		sd.set = core.NewSetOfRegions(gidx.FullSection(shape))
		sd.fill = func(v func(pos, wd int) float64) {
			eachOwnedCoord(dist, rank, func(coords []int) {
				set(coords, v(shape.Linear(coords), 0))
			})
		}
		sd.read = func(f func(pos int, vals []float64)) {
			var one [1]float64
			eachOwnedCoord(dist, rank, func(coords []int) {
				one[0] = get(coords)
				f(shape.Linear(coords), one[:])
			})
		}
		return sd, nil
	}
	return side{}, fmt.Errorf("%w: unknown library %q", ErrBadSpec, spec.Library)
}

// distFor maps a spec's layout to its distribution descriptor.
func distFor(spec *DistSpec) (*distarray.Dist, error) {
	switch spec.Layout {
	case "blockvec":
		d, err := distarray.NewDist(gidx.Shape{spec.Shape[0]}, []int{spec.Procs},
			[]distarray.Kind{distarray.Block})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		return d, nil
	case "rowblock":
		return hpfrt.RowBlockMatrix(spec.Shape[0], spec.Shape[1], spec.Procs), nil
	case "block2d":
		return distarray.MustBlock2D(spec.Shape[0], spec.Shape[1], spec.Procs), nil
	}
	return nil, fmt.Errorf("%w: layout %q", ErrBadSpec, spec.Layout)
}

// eachOwnedCoord walks rank's owned global coordinates in local
// row-major order (the same order distarray.FillGlobal uses).
func eachOwnedCoord(d *distarray.Dist, rank int, f func(coords []int)) {
	counts := d.LocalCounts(rank)
	n := 1
	for _, c := range counts {
		n *= c
	}
	if n == 0 {
		return
	}
	local := make([]int, len(counts))
	for k := 0; k < n; k++ {
		f(d.GlobalOf(rank, local))
		for dim := len(local) - 1; dim >= 0; dim-- {
			local[dim]++
			if local[dim] < counts[dim] {
				break
			}
			local[dim] = 0
		}
	}
}

// fillValue is the deterministic element generator clients and the
// Standalone reference share: a splitmix-style hash of (seed,
// position, word) folded to a small integer, so MoveAdd accumulation
// is exact in float64.
func fillValue(seed int64, pos, wd int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pos)*0xbf58476d1ce4e5b9 + uint64(wd+1)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return float64(int64(x%4096) - 2048)
}
