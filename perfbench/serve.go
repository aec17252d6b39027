package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"metachaos/internal/serve"
)

// serve-mixed drives a live mcserved process over a unix socket with
// one closed-loop client per CPU.  Even-numbered tenants hold a small
// hot set of couplings open and move through them (schedule-cache
// reads); odd-numbered tenants open, move and close couplings drawn
// from a larger catalog (cache, donor and journal writes).  The daemon
// runs with default flags except -cache-entries, which is set below the
// catalog's count of distinct pairs so the cache evicts.

const (
	hotPairs     = 2
	churnPairs   = 12
	cacheEntries = 4
	// churnSeeds bounds the fill seeds a churn move draws from, so
	// identical (pair, op) instances recur and replay once.
	churnSeeds = 4
)

// daemonFlags is mcserved's command line.
func daemonFlags(addr string) []string {
	return []string{"-network", "unix", "-addr", addr, "-quiet",
		"-cache-entries", strconv.Itoa(cacheEntries)}
}

// sideSpecs is the closed vocabulary of one coupling side, every entry
// 4096 float64 elements so any two can be coupled at equal cost.
func sideSpecs(tiny bool) []serve.DistSpec {
	n, s := 4096, 64
	if tiny {
		n, s = 64, 8
	}
	return []serve.DistSpec{
		{Library: "hpfrt", Layout: "blockvec", Shape: []int{n}},
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{s, s}},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{n}},
		{Library: "mbparti", Layout: "block2d", Shape: []int{s, s}},
		{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{n}},
	}
}

// servePair is one catalog entry.
type servePair struct {
	src, dst serve.DistSpec
}

// serveCatalog lays out the hot set and the churn catalog: distinct
// pairs of side specs, every spec sending and receiving about equally
// often, with world shapes dealt in a fixed rotation.  The catalog is
// the same for every seed, so seeds compare like with like; the seed
// draws the op streams (which coupling, which move kind, which fill).
func serveCatalog(tiny bool) (hot, churn []servePair) {
	specs := sideSpecs(tiny)
	shapes := [][2]int{{3, 2}, {4, 4}, {2, 3}}
	pair := func(a, b, shape int) servePair {
		p := servePair{src: specs[a], dst: specs[b]}
		p.src.Procs, p.dst.Procs = shapes[shape][0], shapes[shape][1]
		return p
	}
	hot = []servePair{pair(0, 2, 0), pair(3, 1, 1)}
	for j := 0; len(churn) < churnPairs; j++ {
		a := j % len(specs)
		b := (a + 1 + j/len(specs)) % len(specs)
		churn = append(churn, pair(a, b, len(churn)%len(shapes)))
	}
	return hot, churn
}

// daemon is one running mcserved process.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	addr string
	done chan error
}

// startDaemon starts mcserved on a unix socket in a fresh directory
// beside its binary (addressed relative to the working directory, which
// keeps the socket path short) and waits until it accepts a session.
func startDaemon(bin string) (*daemon, *serve.Client, error) {
	if bin == "" {
		return nil, nil, errors.New("serve-mixed needs --daemon (the mcserved binary)")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(filepath.Dir(bin), "sock")
	if err != nil {
		return nil, nil, err
	}
	rel, err := filepath.Rel(cwd, dir)
	if err != nil || len(rel) > 90 {
		rel = dir
	}
	d := &daemon{dir: dir, addr: filepath.Join(rel, "d.sock"), done: make(chan error, 1)}
	if len(d.addr) > 100 {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("socket path %q is too long", d.addr)
	}
	d.cmd = exec.Command(bin, daemonFlags(d.addr)...)
	d.cmd.Stdout, d.cmd.Stderr = nil, os.Stderr
	// The daemon dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	liveDaemons.add(d)
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := serve.DialWith(serve.DialOptions{Network: "unix", Addr: d.addr, Tenant: "tenant-0", MaxAttempts: 1})
		if err == nil {
			return d, c, nil
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			d.stop()
			return nil, nil, fmt.Errorf("mcserved exited before listening: %v", werr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, nil, fmt.Errorf("mcserved did not accept a session: %w", err)
		}
	}
}

// stop terminates the daemon, waits for it to exit and removes its
// socket directory.
func (d *daemon) stop() {
	liveDaemons.remove(d)
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	os.RemoveAll(d.dir)
}

// daemonSet tracks running daemons so a signal can stop them.
type daemonSet struct {
	mu  sync.Mutex
	set map[*daemon]bool
}

var liveDaemons = &daemonSet{set: map[*daemon]bool{}}

func (s *daemonSet) add(d *daemon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.set[d] = true
}

func (s *daemonSet) remove(d *daemon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.set, d)
}

// stopAll stops every running daemon (on SIGINT/SIGTERM).
func (s *daemonSet) stopAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.set))
	for d := range s.set {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// instance is one open-to-close life of a coupling: its ops and the
// daemon's hash for each.
type instance struct {
	pair   servePair
	ops    []serve.ScriptOp
	hashes []uint64
}

// tenant is one closed-loop client's record.
type tenant struct {
	c                           *serve.Client
	rng                         *rand.Rand
	lat                         []float64
	kindMS                      [3][]float64
	registerMS, openMS, closeMS []float64
	instances                   []*instance
	errs                        int64
}

var serveKindSpan = []string{"serve.Move", "serve.MoveAdd", "serve.MoveReverse"}

// register declares every side of pairs under dist ids 2k and 2k+1.
func (t *tenant) register(pairs []servePair) error {
	for k, p := range pairs {
		for j, spec := range []serve.DistSpec{p.src, p.dst} {
			t0 := time.Now()
			if err := t.c.RegisterDist(2*k+j, spec); err != nil {
				return fmt.Errorf("register: %w", err)
			}
			t.registerMS = append(t.registerMS, ms(time.Since(t0)))
		}
	}
	return nil
}

func (t *tenant) open(k int, p servePair) (*instance, error) {
	t0 := time.Now()
	if _, _, err := t.c.OpenCoupling(k, 2*k, 2*k+1); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	t.openMS = append(t.openMS, ms(time.Since(t0)))
	inst := &instance{pair: p}
	t.instances = append(t.instances, inst)
	return inst, nil
}

// move is one op: a client Move call, timed round trip.
func (t *tenant) move(tr *tracer, id int, k int, inst *instance, kind int, seed int64, tid int) {
	t0 := time.Now()
	st, err := t.c.Move(k, kind, seed)
	t1 := time.Now()
	if err != nil {
		t.errs++
		return
	}
	t.lat = append(t.lat, ms(t1.Sub(t0)))
	t.kindMS[kind] = append(t.kindMS[kind], ms(t1.Sub(t0)))
	if root := tr.add("op", t0, t1, -1, int64(id), tid); root >= 0 {
		tr.add(serveKindSpan[kind], t0, t1, root, int64(id), tid)
	}
	inst.ops = append(inst.ops, serve.ScriptOp{Kind: kind, Seed: seed})
	inst.hashes = append(inst.hashes, st.Hash)
}

// runServe runs serve-mixed.
func runServe(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	hot, churn := serveCatalog(cfg.tiny)
	nt := runtime.NumCPU()
	tenants := make([]*tenant, nt)

	// Set-up: daemon start, hello and registration, repeated; the last
	// daemon serves the timed phase.
	var d *daemon
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		dd, c0, err := startDaemon(cfg.daemon)
		if err != nil {
			return nil, err
		}
		for j := range tenants {
			tenants[j] = &tenant{rng: rand.New(rand.NewSource(cfg.seed*131 + int64(j)))}
		}
		tenants[0].c = c0
		for j := 1; j < nt && err == nil; j++ {
			tenants[j].c, err = serve.DialWith(serve.DialOptions{Network: "unix", Addr: dd.addr, Tenant: fmt.Sprintf("tenant-%d", j)})
		}
		for j := 0; j < nt && err == nil; j++ {
			pairs := hot
			if j%2 == 1 {
				pairs = churn
			}
			err = tenants[j].register(pairs)
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if err != nil || i < cfg.setups-1 {
			for _, t := range tenants {
				if t.c != nil {
					t.c.Close()
				}
			}
			dd.stop()
			if err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	defer d.stop()
	defer func() {
		for _, t := range tenants {
			t.c.Close()
		}
	}()

	// Steady tenants open their hot set before the clock starts.
	steadyInst := make([][]*instance, nt)
	for j := 0; j < nt; j += 2 {
		for k, p := range hot {
			inst, err := tenants[j].open(k, p)
			if err != nil {
				return nil, err
			}
			steadyInst[j] = append(steadyInst[j], inst)
		}
	}

	cpu0 := procCPUSeconds(d.cmd.Process.Pid)
	gcm := startGCMeter()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for j := range tenants {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			t := tenants[j]
			for id := 0; time.Now().Before(deadline); id++ {
				kind := t.rng.Intn(3)
				if j%2 == 0 {
					k := t.rng.Intn(len(hot))
					t.move(cfg.tr, id, k, steadyInst[j][k], kind, t.rng.Int63(), j)
					continue
				}
				k := t.rng.Intn(len(churn))
				inst, err := t.open(k, churn[k])
				if err != nil {
					t.errs++
					continue
				}
				t.move(cfg.tr, id, k, inst, kind, int64(t.rng.Intn(churnSeeds)), j)
				t0 := time.Now()
				if err := t.c.CloseCoupling(k); err != nil {
					t.errs++
					continue
				}
				t.closeMS = append(t.closeMS, ms(time.Since(t0)))
			}
		}(j)
	}
	wg.Wait()
	o.busy = time.Since(start).Seconds()
	o.mallocs = mallocs() - m0
	o.layer["runtime.gc_cpu_share"] = gcm.share()
	daemonCPU := procCPUSeconds(d.cmd.Process.Pid) - cpu0

	var all []*instance
	var registerMS, openMS, closeMS []float64
	var kindMS [3][]float64
	for _, t := range tenants {
		o.lat = append(o.lat, t.lat...)
		o.attempted += int64(len(t.lat)) + t.errs
		o.failed += t.errs
		all = append(all, t.instances...)
		registerMS = append(registerMS, t.registerMS...)
		openMS = append(openMS, t.openMS...)
		closeMS = append(closeMS, t.closeMS...)
		for k := range kindMS {
			kindMS[k] = append(kindMS[k], t.kindMS[k]...)
		}
	}
	// Churn tenants have closed their couplings; the reader's own
	// session is the one still counted.
	for j := 1; j < nt; j += 2 {
		tenants[j].c.Close()
	}
	st, err := tenants[0].c.Stats()
	if err != nil {
		return nil, fmt.Errorf("daemon stats: %w", err)
	}
	o.rssMB = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if cfg.plant {
		for _, inst := range all {
			if len(inst.hashes) > 0 {
				inst.hashes[0] ^= 1
				break
			}
		}
	}
	bad, err := verifyInstances(all)
	if err != nil {
		return nil, err
	}
	o.failed += bad

	opens := st["serve_opens_total"]
	o.layer["serve.register_ms"] = median(registerMS)
	o.layer["serve.open_ms"] = median(openMS)
	o.layer["serve.close_ms"] = median(closeMS)
	for k, name := range []string{"serve.move_ms", "serve.moveadd_ms", "serve.movereverse_ms"} {
		o.layer[name] = median(kindMS[k])
	}
	if b := st["serve_batches_total"]; b > 0 {
		o.layer["serve.ops_per_batch"] = st["serve_batched_ops_total"] / b
	}
	o.layer["serve.cache_hit_rate"] = st["serve_cache_hit_rate"]
	if opens > 0 {
		o.layer["serve.open_warm_share"] = st["serve_open_warm_total"] / opens
		o.layer["serve.open_repaired_share"] = st["serve_open_repaired_total"] / opens
	}
	o.layer["serve.cache_evictions"] = st["serve_cache_evictions"]
	o.layer["serve.worlds"] = st["serve_worlds"]
	o.layer["serve.sessions_end"] = st["serve_sessions"] - 1
	o.layer["serve.backpressure_total"] = st["serve_backpressure_total"]
	o.layer["serve.retryable_total"] = st["serve_retryable_total"]
	if len(o.lat) > 0 {
		o.layer["serve.daemon_cpu_ms_per_op"] = daemonCPU * 1e3 / float64(len(o.lat))
	}
	// A move ships about one source rank's share of the elements.
	for _, p := range append(hot, churn...) {
		n := 1
		for _, d := range p.src.Shape {
			n *= d
		}
		o.msgSizes = append(o.msgSizes, n*8/p.src.Procs)
	}
	return o, nil
}

// verifyInstances replays every coupling instance through
// serve.Standalone and counts the served moves whose hash differs
// (the mcload -check rule).  Identical instances replay once.
func verifyInstances(all []*instance) (int64, error) {
	done := map[string][]uint64{}
	var bad int64
	for _, inst := range all {
		if len(inst.ops) == 0 {
			continue
		}
		key := fmt.Sprintf("%s/%v", serve.PairKey(&inst.pair.src, &inst.pair.dst), inst.ops)
		ref, ok := done[key]
		if !ok {
			stats, err := serve.Standalone(inst.pair.src, inst.pair.dst, inst.ops)
			if err != nil {
				return 0, fmt.Errorf("standalone replay: %w", err)
			}
			for _, s := range stats {
				ref = append(ref, s.Hash)
			}
			done[key] = ref
		}
		for i, h := range inst.hashes {
			if i >= len(ref) || ref[i] != h {
				bad++
			}
		}
	}
	return bad, nil
}
