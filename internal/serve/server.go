package serve

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"metachaos/internal/obs"
)

// Limits on what one daemon will host, beyond which admission control
// answers with typed errors instead of degrading.
const (
	defaultMaxSessions  = 16
	defaultMaxInflight  = 64
	defaultMaxBatch     = 16
	defaultFlush        = 2 * time.Millisecond
	defaultMaxProcs     = 8
	defaultMaxDists     = 64
	defaultMaxCpls      = 32
	defaultLease        = 30 * time.Second
	defaultMaxJournal   = 4096
	defaultCacheEntries = 128
	// maxElems bounds a single distribution's global element count so a
	// tenant cannot make the resident world allocate unboundedly.
	maxElems = 1 << 20
)

// Options configures a Server; zero values take the defaults above.
type Options struct {
	// MaxSessions caps concurrently leased tenant sessions
	// (ErrSessionLimit).  A session counts from Hello until Bye or
	// lease expiry — a detached-but-leased session still holds its
	// slot, which is what makes resume meaningful.
	MaxSessions int
	// MaxInflight caps moves executing or queued across every tenant;
	// excess moves are refused with ErrBackpressure, never queued.
	MaxInflight int
	// MaxBatch caps tenant ops coalesced into one world broadcast.
	MaxBatch int
	// FlushWindow is how long the dispatcher holds a batch open for
	// more ops.  Negative disables batching (every op ships alone);
	// zero takes the default.
	FlushWindow time.Duration
	// MaxFrame bounds a request frame's payload bytes.
	MaxFrame int
	// MaxProcs caps the per-side process count of a registered
	// distribution (and with it the size of resident worlds).
	MaxProcs int
	// MaxDists and MaxCouplings are per-session registration budgets.
	MaxDists     int
	MaxCouplings int
	// Lease is the session TTL.  Any request — including the explicit
	// msgPing — refreshes it; a session idle past the lease is
	// reclaimed: its connection is closed, its couplings released, and
	// its slot returned to admission control.  Zero takes the default;
	// negative disables expiry.
	Lease time.Duration
	// MaxJournal caps the per-coupling op journal that backs world
	// respawn.  A coupling whose journal overflows keeps working but
	// becomes unrecoverable if its world later dies.  Zero takes the
	// default; negative disables journaling entirely.
	MaxJournal int
	// CacheEntries bounds each resident rank's schedule cache with LRU
	// eviction.  The cache is the only place a world keeps schedules
	// beyond its open couplings' own, so this bounds every resident
	// schedule.  Zero takes the default; negative means unbounded.
	CacheEntries int
	// WorldPanic, when set, injects deterministic world failures: it is
	// consulted whenever a resident world for (srcProcs, dstProcs)
	// starts, with incarnation 0 for the shape's first world, 1 for its
	// first respawn, and so on.  A positive return value b makes every
	// rank of that incarnation panic at its b'th command batch.  Test
	// and chaos hook; leave nil in production.
	WorldPanic func(srcProcs, dstProcs, incarnation int) int
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxSessions == 0 {
		out.MaxSessions = defaultMaxSessions
	}
	if out.MaxInflight == 0 {
		out.MaxInflight = defaultMaxInflight
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = defaultMaxBatch
	}
	if out.FlushWindow == 0 {
		out.FlushWindow = defaultFlush
	}
	if out.FlushWindow < 0 {
		out.FlushWindow = 0
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	if out.MaxProcs == 0 {
		out.MaxProcs = defaultMaxProcs
	}
	if out.MaxDists == 0 {
		out.MaxDists = defaultMaxDists
	}
	if out.MaxCouplings == 0 {
		out.MaxCouplings = defaultMaxCpls
	}
	if out.Lease == 0 {
		out.Lease = defaultLease
	}
	if out.Lease < 0 {
		out.Lease = 0 // never expire
	}
	if out.MaxJournal == 0 {
		out.MaxJournal = defaultMaxJournal
	}
	if out.MaxJournal < 0 {
		out.MaxJournal = 0 // journaling off
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = defaultCacheEntries
	}
	if out.CacheEntries < 0 {
		out.CacheEntries = 0 // unbounded
	}
	return out
}

// Server is the coupling daemon: an accept loop, a connection handler
// per socket, a leased tenant state per session token, and a resident
// world per coupling shape.
type Server struct {
	opts Options

	mu         sync.Mutex
	ln         net.Listener
	conns      map[*session]struct{}   // live connection handlers
	states     map[string]*tenantState // leased sessions by resume token
	runners    map[worldKey]*runner    // current world per shape
	worldGen   map[worldKey]int        // incarnations started per shape
	worldEvict map[*runner]int         // last-seen cache evictions per incarnation
	nextHandle int64
	nextToken  int64
	inflight   int
	closed     bool
	metrics    *obs.Metrics

	// respawnMu serializes world revival: exactly one goroutine builds
	// the replacement world and replays journals; rivals queue behind
	// it and adopt the result.  Never held together with mu.
	respawnMu sync.Mutex

	sweepStop chan struct{}
	sweepDone chan struct{}

	wg sync.WaitGroup
}

// NewServer builds a server; call Serve or ListenAndServe to run it.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:       opts.withDefaults(),
		conns:      make(map[*session]struct{}),
		states:     make(map[string]*tenantState),
		runners:    make(map[worldKey]*runner),
		worldGen:   make(map[worldKey]int),
		worldEvict: make(map[*runner]int),
		metrics:    obs.NewMetrics(),
		sweepStop:  make(chan struct{}),
		sweepDone:  make(chan struct{}),
	}
	if s.opts.Lease > 0 {
		go s.sweep()
	} else {
		close(s.sweepDone)
	}
	return s
}

// ListenAndServe listens on network ("tcp" or "unix") and address and
// runs the accept loop until Close.
func (s *Server) ListenAndServe(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve runs the accept loop on ln until Close; it returns nil after a
// clean shutdown.  Session admission happens at Hello time (so the
// refusal carries the client's request id), not accept time.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrShuttingDown
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("serve: listening on %s %s", ln.Addr().Network(), ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess, ok := s.track(conn)
		if !ok {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.serve()
		}()
	}
}

// Addr returns the listener address once Serve is running.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// track registers a new connection handler unless the server is closing.
func (s *Server) track(conn net.Conn) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	sess := &session{srv: s, conn: conn}
	s.conns[sess] = struct{}{}
	s.metrics.Gauge("serve_conns").Set(float64(len(s.conns)))
	return sess, true
}

// dropConn unregisters a finished connection handler.
func (s *Server) dropConn(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, sess)
	s.metrics.Gauge("serve_conns").Set(float64(len(s.conns)))
}

// newState admits a fresh tenant session and leases it a slot.  Resume
// tokens are deterministic per server instance — they are session
// correlators for crash recovery, not authentication secrets.
func (s *Server) newState(tenant string, conn net.Conn) (*tenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	if len(s.states) >= s.opts.MaxSessions {
		s.metrics.Counter("serve_session_refused_total").Inc()
		return nil, fmt.Errorf("%w: %d sessions leased", ErrSessionLimit, s.opts.MaxSessions)
	}
	s.nextToken++
	st := &tenantState{
		token:  fmt.Sprintf("mc-%d-%08x", s.nextToken, uint32(uint64(s.nextToken)*0x9e3779b1)),
		tenant: tenant,
		dists:  make(map[int32]*DistSpec),
		cpls:   make(map[int32]*liveCoupling),
		conn:   conn,
	}
	st.deadline = s.deadlineLocked()
	s.states[st.token] = st
	s.metrics.Counter("serve_sessions_total").Inc()
	s.metrics.Gauge("serve_sessions").Set(float64(len(s.states)))
	return st, nil
}

// resume re-attaches a reconnecting client to its leased session,
// kicking any stale connection still holding it.
func (s *Server) resume(token string, conn net.Conn) (*tenantState, error) {
	s.mu.Lock()
	st := s.states[token]
	if st == nil || st.gone {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: resume token not recognized", ErrUnknownSession)
	}
	old := st.conn
	st.conn = conn
	st.deadline = s.deadlineLocked()
	s.metrics.Counter("serve_resumes_total").Inc()
	s.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
	return st, nil
}

// detach disassociates a dead connection from its session; the leased
// state stays resumable until the lease runs out.
func (s *Server) detach(st *tenantState, conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.conn == conn {
		st.conn = nil
	}
}

// touch refreshes a session's lease.
func (s *Server) touch(st *tenantState) {
	if s.opts.Lease <= 0 {
		return
	}
	s.mu.Lock()
	st.deadline = s.deadlineLocked()
	s.mu.Unlock()
}

// deadlineLocked computes the next lease expiry instant; s.mu held.
func (s *Server) deadlineLocked() time.Time {
	if s.opts.Lease <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.opts.Lease)
}

// isGone reports whether a session has been reclaimed (Bye or expiry).
func (s *Server) isGone(st *tenantState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.gone
}

// finish reclaims a session after Bye: slot, budget and couplings all
// return to the pool.
func (s *Server) finish(st *tenantState) {
	st.reqMu.Lock()
	defer st.reqMu.Unlock()
	s.reclaim(st, "")
}

// reclaim releases a session's couplings and deletes its state; the
// caller holds st.reqMu (which serializes against in-flight requests)
// but not s.mu.  counter, when non-empty, names the metric to bump.
func (s *Server) reclaim(st *tenantState, counter string) {
	s.mu.Lock()
	if st.gone {
		s.mu.Unlock()
		return
	}
	st.gone = true
	delete(s.states, st.token)
	conn := st.conn
	st.conn = nil
	var cpls []*liveCoupling
	for _, lc := range st.cpls {
		cpls = append(cpls, lc)
	}
	st.cpls = make(map[int32]*liveCoupling)
	if counter != "" {
		s.metrics.Counter(counter).Inc()
	}
	s.metrics.Gauge("serve_sessions").Set(float64(len(s.states)))
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	// Handle order keeps the close stream deterministic for the worlds.
	sort.Slice(cpls, func(i, j int) bool { return cpls[i].handle < cpls[j].handle })
	for _, lc := range cpls {
		s.runnerOf(lc).do(&op{cmd: cmdClose, handle: lc.handle})
	}
}

// sweep is the lease sweeper: it periodically reclaims sessions whose
// lease ran out, returning slot, in-flight budget and couplings.
func (s *Server) sweep() {
	defer close(s.sweepDone)
	tick := s.opts.Lease / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.expireIdle()
		}
	}
}

// expireIdle reclaims every session whose lease has run out.
func (s *Server) expireIdle() {
	now := time.Now()
	s.mu.Lock()
	var idle []*tenantState
	for _, st := range s.states {
		if !st.deadline.IsZero() && now.After(st.deadline) {
			idle = append(idle, st)
		}
	}
	s.mu.Unlock()
	for _, st := range idle {
		// Taking reqMu serializes with any in-flight request: once held,
		// the handler is between requests, so re-check the deadline — the
		// request we waited behind refreshed the lease.
		st.reqMu.Lock()
		s.mu.Lock()
		expired := !st.gone && !st.deadline.IsZero() && time.Now().After(st.deadline)
		s.mu.Unlock()
		if expired {
			s.reclaim(st, "serve_lease_expired")
			s.logf("serve: tenant %q lease expired, session %s reclaimed", st.tenant, st.token)
		}
		st.reqMu.Unlock()
	}
}

// Close stops the accept loop, closes every connection, reclaims every
// session, shuts down the resident worlds and waits for everything to
// drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	var conns []net.Conn
	for sess := range s.conns {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	close(s.sweepStop)
	<-s.sweepDone
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// No handler (and no revival) is active past the WaitGroup, so the
	// runner map is final.
	s.mu.Lock()
	var rs []*runner
	for _, r := range s.runners {
		rs = append(rs, r)
	}
	s.mu.Unlock()
	for _, r := range rs {
		r.stop()
	}
	s.logf("serve: shut down")
	return nil
}

// startRunnerLocked launches the next world incarnation for key and
// publishes it; s.mu held.
func (s *Server) startRunnerLocked(key worldKey) *runner {
	gen := s.worldGen[key]
	s.worldGen[key] = gen + 1
	panicAt := 0
	if s.opts.WorldPanic != nil {
		panicAt = s.opts.WorldPanic(key.srcProcs, key.dstProcs, gen)
	}
	r := newRunner(runnerConfig{
		key:      key,
		flush:    s.opts.FlushWindow,
		maxBatch: s.opts.MaxBatch,
		gen:      gen,
		panicAt:  panicAt,
		cacheCap: s.opts.CacheEntries,
	})
	r.onBatch = func(ops int) {
		s.mu.Lock()
		s.metrics.Counter("serve_batches_total").Inc()
		s.metrics.Counter("serve_batched_ops_total").Add(int64(ops))
		s.mu.Unlock()
	}
	s.runners[key] = r
	s.metrics.Counter("serve_worlds_total").Inc()
	s.metrics.Gauge("serve_worlds").Set(float64(len(s.runners)))
	s.logf("serve: resident world %dx%d started (incarnation %d)", key.srcProcs, key.dstProcs, gen)
	return r
}

// runnerFor returns the resident world serving key, starting it (or
// reviving a failed one) as needed.
func (s *Server) runnerFor(key worldKey) (*runner, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if r, ok := s.runners[key]; ok && !r.failed() {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	return s.revive(key)
}

// revive replaces key's dead resident world: it starts the next
// incarnation, replays every surviving coupling's journal into it —
// the same op stream Standalone executes, verified move-by-move
// against the journaled hashes — and only then repoints the couplings
// at the new runner.  respawnMu serializes rival revivals: the first
// caller does the work, later ones adopt its world.
func (s *Server) revive(key worldKey) (*runner, error) {
	s.respawnMu.Lock()
	defer s.respawnMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if r, ok := s.runners[key]; ok && !r.failed() {
		s.mu.Unlock()
		return r, nil
	}
	_, respawning := s.runners[key]
	type replayItem struct {
		lc  *liveCoupling
		ops []moveRec
	}
	var items []replayItem
	for _, st := range s.states {
		for _, lc := range st.cpls {
			if lc.key != key || lc.broken != nil {
				continue
			}
			if lc.journalLost {
				lc.broken = fmt.Errorf("%w: journal overflowed before the world died; coupling unrecoverable", ErrWorldFailed)
				s.metrics.Counter("serve_replay_unrecoverable_total").Inc()
				continue
			}
			items = append(items, replayItem{lc: lc, ops: append([]moveRec(nil), lc.journal...)})
		}
	}
	// Handle order reproduces a deterministic open/move stream on every
	// revival regardless of map iteration.
	sort.Slice(items, func(i, j int) bool { return items[i].lc.handle < items[j].lc.handle })
	r := s.startRunnerLocked(key)
	if respawning {
		s.metrics.Counter("serve_world_respawns").Inc()
	}
	s.mu.Unlock()

	replayed := 0
	for _, it := range items {
		lc := it.lc
		if _, err := r.do(&op{cmd: cmdOpen, handle: lc.handle, src: lc.src, dst: lc.dst}); err != nil {
			s.breakCoupling(lc, fmt.Errorf("replaying open: %w", err))
			continue
		}
		replayed++
		bad := false
		for i, mr := range it.ops {
			rep, err := r.do(&op{
				cmd: cmdMove, handle: lc.handle,
				moveKind: mr.kind, seed: mr.seed, flags: mr.flags &^ flagWantData, payload: mr.payload,
			})
			if err != nil {
				s.breakCoupling(lc, fmt.Errorf("replaying move %d: %w", i, err))
				bad = true
				break
			}
			if rep.hash != mr.hash {
				s.breakCoupling(lc, fmt.Errorf("%w: replayed move %d hashed %#x, journal recorded %#x",
					ErrWorldFailed, i, rep.hash, mr.hash))
				s.count("serve_replay_mismatch_total", 1)
				bad = true
				break
			}
			replayed++
		}
		if bad {
			continue
		}
	}
	s.mu.Lock()
	for _, it := range items {
		if it.lc.broken == nil {
			it.lc.r = r
		}
	}
	s.metrics.Counter("serve_ops_replayed").Add(int64(replayed))
	s.mu.Unlock()
	if replayed > 0 {
		s.logf("serve: world %dx%d respawned, %d journaled ops replayed", key.srcProcs, key.dstProcs, replayed)
	}
	return r, nil
}

// breakCoupling marks a coupling permanently failed (its journal could
// not be replayed bit-identically).
func (s *Server) breakCoupling(lc *liveCoupling, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lc.broken == nil {
		lc.broken = err
	}
}

// runnerOf reads a coupling's current runner (revival repoints it).
func (s *Server) runnerOf(lc *liveCoupling) *runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lc.r
}

// brokenOf reads a coupling's terminal failure, if any.
func (s *Server) brokenOf(lc *liveCoupling) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lc.broken
}

// journal appends a successfully applied move to a coupling's respawn
// journal; past MaxJournal the journal is dropped and the coupling
// marked unrecoverable-on-respawn (it keeps working otherwise).
func (s *Server) journal(lc *liveCoupling, mr moveRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.MaxJournal <= 0 || lc.journalLost {
		return
	}
	if len(lc.journal) >= s.opts.MaxJournal {
		lc.journal = nil
		lc.journalLost = true
		s.metrics.Counter("serve_journal_overflow_total").Inc()
		return
	}
	lc.journal = append(lc.journal, mr)
}

// addCoupling publishes an opened coupling into the session's table
// (under s.mu so revival's scan sees a consistent map).
func (s *Server) addCoupling(st *tenantState, id int32, lc *liveCoupling) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.cpls[id] = lc
}

// removeCoupling unpublishes a coupling before its world-side close.
func (s *Server) removeCoupling(st *tenantState, id int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(st.cpls, id)
}

// noteEvict records the latest cumulative schedule-cache eviction count
// a world incarnation reported; the gauge sums across incarnations.
func (s *Server) noteEvict(r *runner, evict int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.worldEvict[r] == evict {
		return
	}
	s.worldEvict[r] = evict
	total := 0
	for _, v := range s.worldEvict {
		total += v
	}
	s.metrics.Gauge("serve_cache_evictions").Set(float64(total))
}

// handle allocates a globally unique coupling handle.
func (s *Server) handle() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextHandle++
	return s.nextHandle
}

// tryAcquire is move admission control: it claims one in-flight slot
// or reports backpressure.
func (s *Server) tryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight >= s.opts.MaxInflight {
		s.metrics.Counter("serve_backpressure_total").Inc()
		return false
	}
	s.inflight++
	s.metrics.Gauge("serve_inflight").Set(float64(s.inflight))
	return true
}

// release returns an in-flight slot.
func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	s.metrics.Gauge("serve_inflight").Set(float64(s.inflight))
}

// count bumps a named counter (obs instruments are not atomic, so all
// access goes through the server mutex).
func (s *Server) count(name string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.Counter(name).Add(n)
}

// Stats snapshots the server's counters and gauges, plus the derived
// schedule-cache hit rate over coupling opens.
func (s *Server) Stats() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range s.metrics.CounterNames() {
		out[name] = float64(s.metrics.Counter(name).Value())
	}
	for _, name := range s.metrics.GaugeNames() {
		if v, ok := s.metrics.Gauge(name).Value(); ok {
			out[name] = v
		}
	}
	opens := out["serve_opens_total"]
	if opens > 0 {
		out["serve_cache_hit_rate"] = out["serve_open_warm_total"] / opens
	}
	return out
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
