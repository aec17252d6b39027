package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/pcxxrt"
)

// The coupling workloads run one 8-rank SP2 world holding two objects
// per library (a source-role and a destination-role object, so no op
// reads what it writes): Table 5's 1000x1000 regular mesh for hpfrt
// and mbparti, the Table 1/2 irregular mesh (a permuted 256x256 grid
// graph, 65536 nodes) for chaoslib, and objects of the regular mesh's
// size for pcxxrt (a 1e6-element collection) and lparx (the 1000x1000
// mesh cut into 4x4 patches dealt round-robin).

const coupleRanks = 8

// warmupSteps is how many untimed steps couple-warm runs first.
const warmupSteps = 200

// libNames are the five libraries in op-drawing order; metric names
// use them as prefixes.
var libNames = []string{"hpfrt", "mbparti", "chaoslib", "pcxxrt", "lparx"}

const (
	libHPF = iota
	libMBParti
	libChaos
	libPCXX
	libLPARX
)

// Move kinds, as drawn for couple-warm ops.
const (
	kindMove = iota
	kindMoveAdd
	kindMoveReverse
)

var kindSpan = []string{"core.Move", "core.MoveAdd", "core.MoveReverse"}

// coupleSizes scales the coupling world.  A section is an h x w box
// of a fixed area, h drawn from [minH, maxH], so every op moves about
// the same number of elements whatever the seed; maxH and area/minH
// are at most irrSide so every library can hold every section.
type coupleSizes struct {
	meshN, irrSide, minH, maxH, area, warmK int
}

var (
	fullCouple = coupleSizes{meshN: 1000, irrSide: 256, minH: 128, maxH: 200, area: 160 * 160, warmK: 5}
	tinyCouple = coupleSizes{meshN: 40, irrSide: 16, minH: 4, maxH: 9, area: 36, warmK: 5}
)

// coupleOp is one drawn transfer: libraries, method, move kind, the
// section extent and each side's section origin.
type coupleOp struct {
	src, dst int
	method   core.Method
	kind     int
	h, w     int
	so, do   [2]int
}

// opSource draws ops identically on every rank (each rank holds its
// own copy seeded the same).  Cold ops cycle through a shuffled list of
// all 25 library pairs x 2 methods so every run holds the same mix.
type opSource struct {
	rng  *rand.Rand
	sz   coupleSizes
	deck []coupleOp
}

func newOpSource(seed int64, sz coupleSizes) *opSource {
	return &opSource{rng: rand.New(rand.NewSource(seed)), sz: sz}
}

func (s *opSource) origin(lib, h, w int) [2]int {
	n := s.sz.meshN
	switch lib {
	case libChaos:
		n = s.sz.irrSide
	case libPCXX:
		return [2]int{s.rng.Intn(s.sz.meshN*s.sz.meshN - h*w + 1), 0}
	}
	return [2]int{s.rng.Intn(n - h + 1), s.rng.Intn(n - w + 1)}
}

func (s *opSource) sections(op *coupleOp) {
	op.h = s.sz.minH + s.rng.Intn(s.sz.maxH-s.sz.minH+1)
	op.w = s.sz.area / op.h
	op.so = s.origin(op.src, op.h, op.w)
	op.do = s.origin(op.dst, op.h, op.w)
}

// nextCold returns the next cold op: a pair and method from the deck,
// fresh sections, and a plain Move.
func (s *opSource) nextCold() coupleOp {
	if len(s.deck) == 0 {
		for a := range libNames {
			for b := range libNames {
				for _, m := range []core.Method{core.Cooperation, core.Duplication} {
					s.deck = append(s.deck, coupleOp{src: a, dst: b, method: m})
				}
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	op := s.deck[0]
	s.deck = s.deck[1:]
	s.sections(&op)
	return op
}

// warmSet draws the K cached couplings of couple-warm: library i
// sends to library i+1 (mod 5), so the K schedules touch disjoint
// objects and every seed moves the same library mix; the seed draws
// each coupling's method and sections.
func (s *opSource) warmSet(k int) []coupleOp {
	ops := make([]coupleOp, k)
	for i := range ops {
		ops[i] = coupleOp{src: i, dst: (i + 1) % len(libNames), method: core.Method(s.rng.Intn(2))}
		s.sections(&ops[i])
	}
	return ops
}

// fence stamps the wall time (and optionally the heap-allocation
// count) at which the first rank leaves a barrier.  The serial
// scheduler runs one rank at a time, so that rank's stamp is the
// instant the barrier released and no rank has yet done any work.
type fence struct {
	mu sync.Mutex
	n  int64
	t  time.Time
	m  uint64
}

func (f *fence) pass(k int64, mem bool) (time.Time, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n != k {
		f.n = k
		f.t = time.Now()
		if mem {
			f.m = mallocs()
		}
	}
	return f.t, f.m
}

// coupleRun is the state shared by all ranks of one coupling world.
type coupleRun struct {
	cfg      runCfg
	warm     bool
	sz       coupleSizes
	perm     []int32
	measure  bool // false: a set-up-only world
	runStart time.Time
	out      *outcome

	fence   fence
	entered sync.Once
	stop    atomic.Bool
	bad     atomic.Int64
	// Op counters summed over ranks.
	msgs, bytes, copied, elems atomic.Int64
	// Fed by rank 0 only.
	acc *layerAcc
}

// layerAcc gathers per-layer samples on rank 0.
type layerAcc struct {
	worldStart  float64
	setup       float64
	tableBuild  []float64
	schedMS     []float64
	schedAllocs []float64
	moveUS      [3][]float64
	moveAllocs  []float64
	moves       int64
	barrierUS   []float64
	ownedMS     [5][]float64
	ownedAllocs [5][]float64
	vtime       float64
	msgSizes    []int
	opSecs      float64
	setupSchedS float64
	traceSchedS float64
}

// rankState is one rank's view of the world.
type rankState struct {
	run  *coupleRun
	p    *mpsim.Proc
	comm *mpsim.Comm
	ctx  *core.Ctx
	libs [5]core.Library
	objs [5][2]core.DistObject
	fk   int64
}

// gate is a barrier followed by a fence pass: every rank returns the
// same stamp.
func (rs *rankState) gate(mem bool) (time.Time, uint64) {
	rs.comm.Barrier()
	rs.fk++
	return rs.run.fence.pass(rs.fk, mem)
}

func (rs *rankState) lead() bool { return rs.p.Rank() == 0 }

// chaosPerm is the irregular mesh's node numbering: grid cell k of the
// irrSide x irrSide grid is node perm[k].
func chaosPerm(side int) []int32 {
	rng := rand.New(rand.NewSource(19970401))
	p := rng.Perm(side * side)
	out := make([]int32, len(p))
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

// build allocates this rank's ten objects.
func (rs *rankState) build() error {
	sz := rs.run.sz
	r := rs.p.Rank()
	n := sz.meshN
	hd := hpfrt.RowBlockMatrix(n, n, coupleRanks)
	md := distarray.MustBlock2D(n, n, coupleRanks)
	var patches []lparx.Patch
	q := n / 4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			hi0, hi1 := (i+1)*q, (j+1)*q
			if i == 3 {
				hi0 = n
			}
			if j == 3 {
				hi1 = n
			}
			patches = append(patches, lparx.Patch{
				Lo: []int{i * q, j * q}, Hi: []int{hi0, hi1}, Owner: (i*4 + j) % coupleRanks,
			})
		}
	}
	dec, err := lparx.NewDecomposition(coupleRanks, patches)
	if err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		rs.objs[libHPF][k] = hpfrt.NewArray(hd, r)
		a, err := mbparti.NewArray(md, r, 1)
		if err != nil {
			return err
		}
		rs.objs[libMBParti][k] = a
		c, err := pcxxrt.NewCollection(n*n, coupleRanks, 1, r)
		if err != nil {
			return err
		}
		rs.objs[libPCXX][k] = c
		rs.objs[libLPARX][k] = lparx.NewGrid(dec, r)
	}
	// The irregular mesh: rank r owns the nodes of a contiguous run of
	// grid cells, which is irregular in node numbering.  Building the
	// first array builds its translation table; the second is aligned
	// to it.
	cells := sz.irrSide * sz.irrSide
	lo, hi := r*cells/coupleRanks, (r+1)*cells/coupleRanks
	mine := append([]int32(nil), rs.run.perm[lo:hi]...)
	t0, _ := rs.gate(false)
	x, err := chaoslib.NewArray(rs.ctx, mine)
	if err != nil {
		return err
	}
	t1, _ := rs.gate(false)
	if rs.lead() {
		rs.run.acc.tableBuild = append(rs.run.acc.tableBuild, ms(t1.Sub(t0)))
	}
	rs.objs[libChaos][0] = x
	rs.objs[libChaos][1] = chaoslib.NewAligned(x)
	rs.libs = [5]core.Library{hpfrt.Library, mbparti.Library, chaoslib.Library, pcxxrt.Library, lparx.Library}
	return nil
}

// set builds one side's section: a box for the 2-D libraries, the
// nodes of a grid box for chaoslib, a contiguous range for pcxxrt.
func (rs *rankState) set(lib, h, w int, o [2]int) *core.SetOfRegions {
	switch lib {
	case libChaos:
		side := rs.run.sz.irrSide
		idx := make(chaoslib.IndexRegion, 0, h*w)
		for i := o[0]; i < o[0]+h; i++ {
			for j := o[1]; j < o[1]+w; j++ {
				idx = append(idx, rs.run.perm[i*side+j])
			}
		}
		return core.NewSetOfRegions(idx)
	case libPCXX:
		return core.NewSetOfRegions(pcxxrt.RangeRegion{Lo: o[0], Hi: o[0] + h*w, Step: 1})
	case libLPARX:
		return core.NewSetOfRegions(lparx.BoxRegion{Lo: []int{o[0], o[1]}, Hi: []int{o[0] + h, o[1] + w}})
	}
	return core.NewSetOfRegions(gidx.NewSection([]int{o[0], o[1]}, []int{o[0] + h, o[1] + w}))
}

// coupling is one drawn op bound to this rank's objects.
type coupling struct {
	op             coupleOp
	srcSet, dstSet *core.SetOfRegions
	sched          *core.Schedule
	// srcPL and dstPL are this rank's owned positions of each side.
	srcPL, dstPL []core.PosLoc
	looked       bool
	// pre is the receiving side's snapshot before a MoveAdd, by
	// position (entries for positions this rank owns).
	pre []float64
}

func (rs *rankState) bind(op coupleOp) *coupling {
	return &coupling{
		op:     op,
		srcSet: rs.set(op.src, op.h, op.w, op.so),
		dstSet: rs.set(op.dst, op.h, op.w, op.do),
	}
}

func (rs *rankState) spec(lib, role int, set *core.SetOfRegions) *core.Spec {
	return &core.Spec{Lib: rs.libs[lib], Obj: rs.objs[lib][role], Set: set, Ctx: rs.ctx}
}

func (rs *rankState) compute(c *coupling) error {
	s, err := core.ComputeSchedule(core.SingleProgram(rs.comm),
		rs.spec(c.op.src, 0, c.srcSet), rs.spec(c.op.dst, 1, c.dstSet), c.op.method)
	c.sched = s
	return err
}

func (rs *rankState) move(c *coupling) core.MoveResult {
	src, dst := rs.objs[c.op.src][0], rs.objs[c.op.dst][1]
	switch c.op.kind {
	case kindMoveAdd:
		return c.sched.MoveAdd(src, dst)
	case kindMoveReverse:
		return c.sched.MoveReverse(src, dst)
	}
	return c.sched.Move(src, dst)
}

// expect is the value position pos of step's sending side holds: exact
// in float64 and distinct across nearby positions and steps.
func expect(step int64, pos int32) float64 {
	return float64((step*7919+int64(pos)*31)%1000003) + 0.5
}

// owned calls one side's OwnedPositions, fenced so its time and
// allocations cover every rank.
func (rs *rankState) owned(lib, role int, set *core.SetOfRegions) []core.PosLoc {
	t0, m0 := rs.gate(true)
	pl := rs.libs[lib].OwnedPositions(rs.ctx, rs.objs[lib][role], set)
	t1, m1 := rs.gate(true)
	if rs.lead() {
		acc := rs.run.acc
		rs.run.cfg.tr.add(libNames[lib]+".OwnedPositions", t0, t1, -1, -1, 0)
		acc.ownedMS[lib] = append(acc.ownedMS[lib], ms(t1.Sub(t0)))
		acc.ownedAllocs[lib] = append(acc.ownedAllocs[lib], float64(m1-m0))
	}
	return pl
}

// prepare writes step's values into the sending side of c and, for
// MoveAdd, snapshots the receiving side so verify knows the sum.  Each
// side's owned positions are looked up once per coupling.
func (rs *rankState) prepare(c *coupling, step int64) {
	if !c.looked {
		c.looked = true
		c.srcPL = rs.libs[c.op.src].OwnedPositions(rs.ctx, rs.objs[c.op.src][0], c.srcSet)
		c.dstPL = rs.libs[c.op.dst].OwnedPositions(rs.ctx, rs.objs[c.op.dst][1], c.dstSet)
	}
	send, sendPL := rs.objs[c.op.src][0], c.srcPL
	if c.op.kind == kindMoveReverse {
		send, sendPL = rs.objs[c.op.dst][1], c.dstPL
	}
	mem := send.LocalMem()
	for _, pl := range sendPL {
		mem.SetF(int(pl.Off), expect(step, pl.Pos))
	}
	if c.op.kind == kindMoveAdd {
		if len(c.pre) != c.op.h*c.op.w {
			c.pre = make([]float64, c.op.h*c.op.w)
		}
		dmem := rs.objs[c.op.dst][1].LocalMem()
		for _, pl := range c.dstPL {
			c.pre[pl.Pos] = dmem.GetF(int(pl.Off))
		}
	}
}

// verify checks every receiving element against its linearization
// partner: after Move the destination element at position k holds the
// source's step value for k, after MoveAdd the snapshot plus it, and
// after MoveReverse the source element holds the destination's value.
// A traced run calls both sides' OwnedPositions again here after each
// timed op, outside the op's span, to time the libraries.  plant corrupts one received
// element first, for the self-test.
func (rs *rankState) verify(c *coupling, step int64, plant bool) {
	srcPL, dstPL := c.srcPL, c.dstPL
	if rs.run.cfg.tr != nil && step >= 0 {
		srcPL = rs.owned(c.op.src, 0, c.srcSet)
		dstPL = rs.owned(c.op.dst, 1, c.dstSet)
	}
	recvLib, recvRole, recvPL := c.op.dst, 1, dstPL
	if c.op.kind == kindMoveReverse {
		recvLib, recvRole, recvPL = c.op.src, 0, srcPL
	}
	mem := rs.objs[recvLib][recvRole].LocalMem()
	if plant && len(recvPL) > 0 {
		mem.SetF(int(recvPL[0].Off), -1)
	}
	bad := 0
	for _, pl := range recvPL {
		want := expect(step, pl.Pos)
		if c.op.kind == kindMoveAdd {
			want += c.pre[pl.Pos]
		}
		if mem.GetF(int(pl.Off)) != want {
			bad++
		}
	}
	if bad > 0 {
		rs.run.bad.Add(int64(bad))
	}
}

// opCounters reads this rank's message counters and clock.
type opCounters struct {
	msgs, bytes int64
	clock       float64
}

func (rs *rankState) counters() opCounters {
	st := rs.p.LocalStats()
	return opCounters{msgs: st.MsgsSent, bytes: st.BytesSent, clock: rs.p.Clock()}
}

// addCounters adds this rank's op traffic (b - a) to the run totals;
// rank 0's clock advance is the op's virtual time.
func (rs *rankState) addCounters(a, b opCounters) {
	rs.run.msgs.Add(b.msgs - a.msgs)
	rs.run.bytes.Add(b.bytes - a.bytes)
	if rs.lead() {
		rs.run.acc.vtime += b.clock - a.clock
	}
}

// innerGate is a gate inside a traced op: its own traffic and virtual
// time are kept out of the op's counters by restarting them after it.
func (rs *rankState) innerGate(c *opCounters) (time.Time, uint64) {
	before := rs.counters()
	rs.addCounters(*c, before)
	t, m := rs.gate(true)
	*c = rs.counters()
	return t, m
}

// body is every rank's program: set-up, then (in the measured world)
// the timed op loop.
func (run *coupleRun) body(p *mpsim.Proc) {
	run.entered.Do(func() {
		run.acc.worldStart = ms(time.Since(run.runStart))
	})
	rs := &rankState{run: run, p: p, comm: p.Comm(), ctx: core.NewCtx(p, p.Comm())}
	if err := rs.build(); err != nil {
		panic(err)
	}
	src := newOpSource(run.cfg.seed, run.sz)
	var cached []*coupling
	if run.warm {
		for _, op := range src.warmSet(run.sz.warmK) {
			c := rs.bind(op)
			t0, m0 := rs.gate(true)
			if err := rs.compute(c); err != nil {
				panic(err)
			}
			t1, m1 := rs.gate(true)
			if rs.lead() {
				run.acc.setupSchedS += t1.Sub(t0).Seconds()
				if run.cfg.tr != nil {
					run.acc.schedMS = append(run.acc.schedMS, ms(t1.Sub(t0)))
					run.acc.schedAllocs = append(run.acc.schedAllocs, float64(m1-m0))
				}
			}
			cached = append(cached, c)
		}
	}
	tEnd, _ := rs.gate(false)
	if rs.lead() {
		run.acc.setup = tEnd.Sub(run.runStart).Seconds()
	}
	if !run.measure {
		return
	}

	// Untimed warm-up steps let the simulator's message freelists and
	// the data plane's segment pool reach their steady population.
	warmup := int64(0)
	if run.warm {
		warmup = warmupSteps
	}
	var loopStart time.Time
	for step := -warmup; ; step++ {
		if step == 0 && rs.lead() {
			// Every rank has counted its warm-up traffic by now: it did
			// so before the last step's closing gate.
			run.out.lat, run.out.mallocs, run.acc.opSecs = nil, 0, 0
			run.out.attempted, run.out.failed = 0, 0
			run.acc.moves, run.acc.vtime = 0, 0
			for _, c := range []*atomic.Int64{&run.msgs, &run.bytes, &run.copied, &run.elems} {
				c.Store(0)
			}
			loopStart = time.Now()
		}
		// Cold runs stop only between decks, so every run holds whole
		// decks: the same mix of pairs and methods.
		if rs.lead() && step > 0 && (run.warm || len(src.deck) == 0) {
			if time.Since(loopStart).Seconds() >= run.cfg.seconds {
				run.stop.Store(true)
			}
		}
		rs.comm.Barrier()
		if rs.lead() && step > -warmup {
			run.out.attempted++
			if run.bad.Swap(0) > 0 {
				run.out.failed++
			}
		}
		if run.stop.Load() {
			break
		}
		if run.warm {
			rs.warmStep(src, cached, step)
		} else {
			rs.coldStep(src, step)
		}
	}
}

// coldStep is one couple-cold op: build a schedule for a fresh pair of
// sections, then move once through it.
func (rs *rankState) coldStep(src *opSource, step int64) {
	run, tr := rs.run, rs.run.cfg.tr
	c := rs.bind(src.nextCold())
	rs.prepare(c, step)
	t0, m0 := rs.gate(true)
	ctr := rs.counters()
	err := rs.compute(c)
	var tS time.Time
	var mS uint64
	if tr != nil {
		tS, mS = rs.innerGate(&ctr)
	}
	var res core.MoveResult
	if err == nil {
		res = rs.move(c)
	} else {
		run.bad.Add(1)
	}
	rs.addCounters(ctr, rs.counters())
	run.copied.Add(int64(res.BytesCopied))
	run.elems.Add(int64(res.Elems))
	t1, m1 := rs.gate(true)
	if rs.lead() {
		acc := run.acc
		run.out.lat = append(run.out.lat, ms(t1.Sub(t0)))
		run.out.mallocs += m1 - m0
		acc.opSecs += t1.Sub(t0).Seconds()
		acc.moves++
		if c.sched != nil {
			for _, pl := range c.sched.Sends {
				acc.msgSizes = append(acc.msgSizes, pl.Len()*8)
			}
		}
		if tr != nil {
			root := tr.add("op", t0, t1, -1, step, 0)
			tr.add("core.ComputeSchedule", t0, tS, root, step, 0)
			tr.add(kindSpan[c.op.kind], tS, t1, root, step, 0)
			acc.schedMS = append(acc.schedMS, ms(tS.Sub(t0)))
			acc.schedAllocs = append(acc.schedAllocs, float64(mS-m0))
			acc.traceSchedS += tS.Sub(t0).Seconds()
			acc.moveUS[c.op.kind] = append(acc.moveUS[c.op.kind], float64(t1.Sub(tS).Nanoseconds())/1e3)
			acc.moveAllocs = append(acc.moveAllocs, float64(m1-mS))
		}
	}
	if tr != nil {
		rs.barrierProbe()
	}
	if err == nil {
		rs.verify(c, step, run.cfg.plant && step == 0)
	}
}

// warmStep is one couple-warm time step: one Move, MoveAdd or
// MoveReverse on every cached schedule, then a barrier.
func (rs *rankState) warmStep(src *opSource, cached []*coupling, step int64) {
	run, tr := rs.run, rs.run.cfg.tr
	for _, c := range cached {
		c.op.kind = src.rng.Intn(3)
		rs.prepare(c, step)
	}
	t0, m0 := rs.gate(true)
	ctr := rs.counters()
	prev, prevM := t0, m0
	var root int
	if rs.lead() && tr != nil {
		root = tr.add("op", t0, t0, -1, step, 0)
	}
	for _, c := range cached {
		res := rs.move(c)
		run.copied.Add(int64(res.BytesCopied))
		run.elems.Add(int64(res.Elems))
		if tr != nil {
			t, m := rs.innerGate(&ctr)
			if rs.lead() {
				tr.add(kindSpan[c.op.kind], prev, t, root, step, 0)
				run.acc.moveUS[c.op.kind] = append(run.acc.moveUS[c.op.kind], float64(t.Sub(prev).Nanoseconds())/1e3)
				run.acc.moveAllocs = append(run.acc.moveAllocs, float64(m-prevM))
			}
			prev, prevM = t, m
		}
	}
	rs.addCounters(ctr, rs.counters())
	t1, m1 := rs.gate(true)
	if rs.lead() {
		acc := run.acc
		run.out.lat = append(run.out.lat, ms(t1.Sub(t0)))
		run.out.mallocs += m1 - m0
		acc.opSecs += t1.Sub(t0).Seconds()
		acc.moves += int64(len(cached))
		if step == 0 {
			for _, c := range cached {
				for _, pl := range c.sched.Sends {
					acc.msgSizes = append(acc.msgSizes, pl.Len()*8)
				}
			}
		}
		if tr != nil {
			tr.setEnd(root, t1)
			tr.add("mpsim.Barrier", prev, t1, root, step, 0)
		}
	}
	if tr != nil {
		rs.barrierProbe()
	}
	for i, c := range cached {
		rs.verify(c, step, run.cfg.plant && step == 0 && i == 0)
	}
}

// barrierProbe times one barrier among ranks that are already in step.
func (rs *rankState) barrierProbe() {
	t0, _ := rs.gate(false)
	t1, _ := rs.gate(false)
	if rs.lead() {
		rs.run.acc.barrierUS = append(rs.run.acc.barrierUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
}

// runCouple runs couple-cold (warm false) or couple-warm: cfg.setups
// worlds, the last of which goes on to the timed loop.
func runCouple(cfg runCfg, warm bool) (*outcome, error) {
	sz := fullCouple
	if cfg.tiny {
		sz = tinyCouple
	}
	o := newOutcome()
	acc := &layerAcc{}
	perm := chaosPerm(sz.irrSide)
	var worldStarts []float64
	var cpu cpuMeter
	var gcm *gcMeter
	for i := 0; i < cfg.setups; i++ {
		runtime.GC() // the last world's garbage is not this set-up's cost
		run := &coupleRun{cfg: cfg, warm: warm, sz: sz, perm: perm, out: o, acc: acc,
			measure: i == cfg.setups-1, runStart: time.Now()}
		if run.measure {
			cpu = startCPUMeter()
			gcm = startGCMeter()
		}
		if err := runWorld(run.body); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, acc.setup)
		worldStarts = append(worldStarts, acc.worldStart)
		if run.measure {
			o.layer["mpsim.cpu_util"] = cpu.util()
			o.layer["runtime.gc_cpu_share"] = gcm.share()
			ops := float64(len(o.lat))
			if ops > 0 {
				o.layer["mpsim.msgs_per_op"] = float64(run.msgs.Load()) / ops
				o.layer["mpsim.bytes_per_op"] = float64(run.bytes.Load()) / ops
				o.layer["mpsim.vtime_ms_per_op"] = acc.vtime * 1e3 / ops
			}
			if acc.moves > 0 {
				o.layer["core.bytes_copied_per_move"] = float64(run.copied.Load()) / float64(acc.moves)
				o.layer["core.elems_per_move"] = float64(run.elems.Load()) / float64(acc.moves)
			}
		}
	}
	o.busy = acc.opSecs
	o.rssMB = peakRSSMB("self")
	o.layer["mpsim.world_start_ms"] = median(worldStarts)
	o.layer["chaoslib.table_build_ms"] = median(acc.tableBuild)
	if cfg.tr != nil {
		o.layer["mpsim.barrier_us"] = median(acc.barrierUS)
		o.layer["core.schedule_ms"] = median(acc.schedMS)
		o.layer["core.schedule_allocs"] = median(acc.schedAllocs)
		if warm {
			o.layer["core.schedule_share"] = acc.setupSchedS / float64(len(o.setups)) / median(o.setups)
		} else if acc.opSecs > 0 {
			o.layer["core.schedule_share"] = acc.traceSchedS / acc.opSecs
		}
		moveMetric := []string{"core.move_us", "core.moveadd_us", "core.movereverse_us"}
		for k, name := range moveMetric {
			if len(acc.moveUS[k]) > 0 {
				o.layer[name] = median(acc.moveUS[k])
			}
		}
		o.layer["core.move_allocs"] = median(acc.moveAllocs)
		for l, name := range libNames {
			if len(acc.ownedMS[l]) > 0 {
				o.layer[name+".owned_positions_ms"] = median(acc.ownedMS[l])
				o.layer[name+".owned_positions_allocs"] = median(acc.ownedAllocs[l])
			}
		}
	}
	o.msgSizes = acc.msgSizes
	return o, nil
}

// runWorld runs one coupling world, turning a rank's panic into an
// error.
func runWorld(body func(p *mpsim.Proc)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("coupling world: %v", r)
		}
	}()
	mpsim.RunSPMD(mpsim.SP2(), coupleRanks, body)
	return nil
}
