package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testSpecs returns the canonical HPF-to-Parti vector pair the tests
// couple: 60 elements block-distributed over 3 source and 2
// destination processes.
func testSpecs() (DistSpec, DistSpec) {
	src := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{60}, Procs: 3}
	dst := DistSpec{Library: "mbparti", Layout: "blockvec", Shape: []int{60}, Procs: 2}
	return src, dst
}

// startServer runs a daemon on a unix socket in a test tempdir and
// returns its address plus a cleanup-registered shutdown.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "mc.sock")
	srv := NewServer(opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe("unix", sock) }()
	// Wait for the listener to come up.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, sock
}

// dialT connects a test tenant.
func dialT(t *testing.T, sock, tenant string) *Client {
	t.Helper()
	c, err := Dial("unix", sock, tenant)
	if err != nil {
		t.Fatalf("dial %s: %v", tenant, err)
	}
	return c
}

// setupCoupling registers the canonical pair and opens coupling 1.
func setupCoupling(t *testing.T, c *Client) (warm bool, elems int) {
	t.Helper()
	src, dst := testSpecs()
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatalf("register src: %v", err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatalf("register dst: %v", err)
	}
	warm, elems, err := c.OpenCoupling(1, 1, 2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return warm, elems
}

// TestServeMatchesStandalone is the core acceptance property: a
// tenant's move hashes through the daemon are bit-identical to a
// standalone replay of the same op sequence, for all three move kinds
// (including MoveAdd's accumulated state).
func TestServeMatchesStandalone(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	warm, elems := setupCoupling(t, c)
	if warm {
		t.Error("first open of a fresh daemon reported a warm schedule")
	}
	if elems != 60 {
		t.Errorf("elems = %d, want 60", elems)
	}
	ops := []ScriptOp{
		{Kind: OpMove, Seed: 11},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveAdd, Seed: 22},
		{Kind: OpMoveReverse, Seed: 33},
		{Kind: OpMove, Seed: 11},
	}
	var served []uint64
	for _, op := range ops {
		st, err := c.Move(1, op.Kind, op.Seed)
		if err != nil {
			t.Fatalf("move %+v: %v", op, err)
		}
		if st.Elems != 60 {
			t.Errorf("move elems = %d, want 60", st.Elems)
		}
		served = append(served, st.Hash)
	}
	src, dst := testSpecs()
	ref, err := Standalone(src, dst, ops)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	for i := range ops {
		if served[i] != ref[i].Hash {
			t.Errorf("move %d: served hash %016x != standalone %016x", i, served[i], ref[i].Hash)
		}
	}
	// Identical seeds produce identical hashes; the accumulated MoveAdd
	// state must differ from the plain copy.
	if served[0] != served[4] {
		t.Error("same seed, same kind produced different hashes")
	}
	if served[1] == served[2] {
		t.Error("repeated MoveAdd did not change the accumulated destination")
	}
}

// TestServeDataCorrectness checks actual element movement end to end:
// an explicit payload lands on the destination exactly, and a
// seed-filled move returns the generator's values.
func TestServeDataCorrectness(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	_, elems := setupCoupling(t, c)

	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(3*i - 7)
	}
	st, err := c.MovePayload(1, OpMove, payload, true)
	if err != nil {
		t.Fatalf("payload move: %v", err)
	}
	if len(st.Data) != elems {
		t.Fatalf("returned %d values, want %d", len(st.Data), elems)
	}
	for i := range payload {
		if st.Data[i] != payload[i] {
			t.Fatalf("element %d: landed %v, want %v", i, st.Data[i], payload[i])
		}
	}

	st, err = c.MoveData(1, OpMove, 55)
	if err != nil {
		t.Fatalf("seeded move: %v", err)
	}
	for i := 0; i < elems; i++ {
		if want := fillValue(55, i, 0); st.Data[i] != want {
			t.Fatalf("element %d: landed %v, want fillValue %v", i, st.Data[i], want)
		}
	}
}

// TestServeMultiWordCollection moves a pC++ collection of 2-word
// elements between process counts and checks every word.
func TestServeMultiWordCollection(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	src := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 3, ElemWords: 2}
	dst := DistSpec{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{30}, Procs: 2, ElemWords: 2}
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	st, err := c.MoveData(1, OpMove, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Data) != 60 {
		t.Fatalf("returned %d scalars, want 60", len(st.Data))
	}
	for i := 0; i < 30; i++ {
		for wd := 0; wd < 2; wd++ {
			if got, want := st.Data[i*2+wd], fillValue(9, i, wd); got != want {
				t.Fatalf("element %d word %d: %v, want %v", i, wd, got, want)
			}
		}
	}
}

// TestServeTwoTenantsShareSchedules is the amortization claim: the
// second tenant declaring the same distribution pair opens warm, the
// daemon's hit rate goes positive, and concurrent traffic from both
// tenants stays bit-stable per tenant.
func TestServeTwoTenantsShareSchedules(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: 500 * time.Microsecond})
	a := dialT(t, sock, "alice")
	defer a.Close()
	b := dialT(t, sock, "bob")
	defer b.Close()

	warmA, _ := setupCoupling(t, a)
	if warmA {
		t.Error("alice's open should build cold")
	}
	warmB, _ := setupCoupling(t, b)
	if !warmB {
		t.Error("bob's open of the same pair should hit alice's schedule")
	}

	// Both tenants stream the same seeds concurrently; the batched,
	// multiplexed execution must give each the same answers.
	const moves = 6
	hashes := make([][]uint64, 2)
	var wg sync.WaitGroup
	for i, c := range []*Client{a, b} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for m := 0; m < moves; m++ {
				st, err := c.Move(1, OpMove, int64(100+m))
				if err != nil {
					t.Errorf("tenant %d move %d: %v", i, m, err)
					return
				}
				hashes[i] = append(hashes[i], st.Hash)
			}
		}(i, c)
	}
	wg.Wait()
	for m := 0; m < moves; m++ {
		if hashes[0][m] != hashes[1][m] {
			t.Errorf("move %d: alice %016x != bob %016x", m, hashes[0][m], hashes[1][m])
		}
	}

	stats := srv.Stats()
	if stats["serve_cache_hit_rate"] <= 0 {
		t.Errorf("cache hit rate %v, want > 0", stats["serve_cache_hit_rate"])
	}
	if stats["serve_opens_total"] != 2 || stats["serve_open_warm_total"] != 1 {
		t.Errorf("opens=%v warm=%v, want 2/1", stats["serve_opens_total"], stats["serve_open_warm_total"])
	}
	if stats["serve_moves_total"] != 2*moves {
		t.Errorf("moves=%v, want %d", stats["serve_moves_total"], 2*moves)
	}
	if stats["serve_worlds"] != 1 {
		t.Errorf("worlds=%v, want 1 shared resident world", stats["serve_worlds"])
	}

	// The same stats are readable over the wire.
	wire, err := a.Stats()
	if err != nil {
		t.Fatalf("client stats: %v", err)
	}
	if wire["serve_cache_hit_rate"] <= 0 {
		t.Error("wire stats lost the hit rate")
	}
}

// TestServeBackpressure pins admission control: with no in-flight
// budget every move is refused with the typed error, the session
// survives, and nothing hangs.
func TestServeBackpressure(t *testing.T) {
	// A negative MaxInflight survives withDefaults and admits nothing.
	srv, sock := startServer(t, Options{MaxInflight: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	setupCoupling(t, c)
	_, err := c.Move(1, OpMove, 1)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("move with zero budget: %v, want ErrBackpressure", err)
	}
	// The session is still healthy: stats and close work.
	if _, err := c.Stats(); err != nil {
		t.Errorf("stats after backpressure: %v", err)
	}
	if srv.Stats()["serve_backpressure_total"] < 1 {
		t.Error("backpressure was not counted")
	}
}

// TestServeSessionLimit pins connection admission: the daemon refuses
// tenant N+1 with the typed error and keeps serving tenant N.
func TestServeSessionLimit(t *testing.T) {
	_, sock := startServer(t, Options{MaxSessions: 1})
	a := dialT(t, sock, "alice")
	defer a.Close()
	if _, err := Dial("unix", sock, "bob"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second session: %v, want ErrSessionLimit", err)
	}
	if _, _, err := a.OpenCoupling(9, 9, 9); !errors.Is(err, ErrUnknownDist) {
		t.Errorf("first session no longer serving: %v", err)
	}
}

// TestServeTypedErrors walks the request-validation surface.
func TestServeTypedErrors(t *testing.T) {
	_, sock := startServer(t, Options{MaxProcs: 4})
	c := dialT(t, sock, "alice")
	defer c.Close()

	bad := DistSpec{Library: "hpfrt", Layout: "spiral", Shape: []int{8}, Procs: 2}
	if err := c.RegisterDist(1, bad); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad layout: %v, want ErrBadSpec", err)
	}
	big := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{64}, Procs: 7}
	if err := c.RegisterDist(1, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized procs: %v, want ErrTooLarge", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); !errors.Is(err, ErrUnknownDist) {
		t.Errorf("unregistered dists: %v, want ErrUnknownDist", err)
	}
	if _, err := c.Move(5, OpMove, 1); !errors.Is(err, ErrUnknownCoupling) {
		t.Errorf("unopened coupling: %v, want ErrUnknownCoupling", err)
	}
	if err := c.CloseCoupling(5); !errors.Is(err, ErrUnknownCoupling) {
		t.Errorf("closing unopened coupling: %v, want ErrUnknownCoupling", err)
	}

	src, dst := testSpecs()
	if err := c.RegisterDist(1, src); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDist(2, dst); err != nil {
		t.Fatal(err)
	}
	short := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{30}, Procs: 2}
	if err := c.RegisterDist(3, short); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 3); !errors.Is(err, ErrBadSpec) {
		t.Errorf("mismatched pair: %v, want ErrBadSpec", err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.OpenCoupling(1, 1, 2); !errors.Is(err, ErrBadSpec) {
		t.Errorf("reopening a live coupling id: %v, want ErrBadSpec", err)
	}
	if _, err := c.MovePayload(1, OpMove, []float64{1, 2, 3}, false); !errors.Is(err, ErrBadSpec) {
		t.Errorf("short payload: %v, want ErrBadSpec", err)
	}
}

// TestServeTCP runs the same coupling over a TCP loopback socket.
func TestServeTCP(t *testing.T) {
	srv := NewServer(Options{FlushWindow: -1})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe("tcp", "127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	defer func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := Dial("tcp", srv.Addr().String(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setupCoupling(t, c)
	st, err := c.Move(1, OpMove, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := testSpecs()
	ref, err := Standalone(src, dst, []ScriptOp{{Kind: OpMove, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != ref[0].Hash {
		t.Errorf("TCP hash %016x != standalone %016x", st.Hash, ref[0].Hash)
	}
}

// TestServeChurnReopens pins session churn: close/reopen cycles reuse
// the cached schedule (warm open) and fresh objects (a MoveAdd after
// reopen starts from zeroed storage).
func TestServeChurnReopens(t *testing.T) {
	_, sock := startServer(t, Options{FlushWindow: -1})
	c := dialT(t, sock, "alice")
	defer c.Close()
	setupCoupling(t, c)
	st1, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hash == st2.Hash {
		t.Error("second MoveAdd should accumulate, not repeat")
	}
	if err := c.CloseCoupling(1); err != nil {
		t.Fatal(err)
	}
	warm, _, err := c.OpenCoupling(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("reopen after close should be warm")
	}
	st3, err := c.Move(1, OpMoveAdd, 77)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Hash != st1.Hash {
		t.Errorf("MoveAdd on a reopened coupling %016x, want fresh-storage hash %016x", st3.Hash, st1.Hash)
	}
}

// TestStandaloneValidates covers the reference executor's own input
// checking.
func TestStandaloneValidates(t *testing.T) {
	src, _ := testSpecs()
	bad := DistSpec{Library: "hpfrt", Layout: "blockvec", Shape: []int{61}, Procs: 2}
	if _, err := Standalone(src, bad, nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("mismatched standalone pair: %v, want ErrBadSpec", err)
	}
}

// TestServeManyTenants floods the daemon with more concurrent tenants
// than worlds, mixing pairs, verifying every hash against standalone.
func TestServeManyTenants(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: time.Millisecond})
	pairs := [][2]DistSpec{}
	{
		s, d := testSpecs()
		pairs = append(pairs, [2]DistSpec{s, d})
	}
	// A different process shape than testSpecs' 3->2, so the daemon
	// must host a second resident world.
	pairs = append(pairs, [2]DistSpec{
		{Library: "mbparti", Layout: "block2d", Shape: []int{8, 8}, Procs: 4},
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{8, 8}, Procs: 2},
	})

	const tenants = 4
	const moves = 4
	type result struct {
		pair   int
		hashes []uint64
		err    error
	}
	results := make([]result, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := i % len(pairs)
			results[i].pair = p
			c, err := Dial("unix", sock, fmt.Sprintf("tenant-%d", i))
			if err != nil {
				results[i].err = err
				return
			}
			defer c.Close()
			if err := c.RegisterDist(1, pairs[p][0]); err != nil {
				results[i].err = err
				return
			}
			if err := c.RegisterDist(2, pairs[p][1]); err != nil {
				results[i].err = err
				return
			}
			if _, _, err := c.OpenCoupling(1, 1, 2); err != nil {
				results[i].err = err
				return
			}
			for m := 0; m < moves; m++ {
				st, err := c.Move(1, OpMove, int64(m))
				if err != nil {
					results[i].err = err
					return
				}
				results[i].hashes = append(results[i].hashes, st.Hash)
			}
		}(i)
	}
	wg.Wait()

	ops := make([]ScriptOp, moves)
	for m := range ops {
		ops[m] = ScriptOp{Kind: OpMove, Seed: int64(m)}
	}
	for p := range pairs {
		ref, err := Standalone(pairs[p][0], pairs[p][1], ops)
		if err != nil {
			t.Fatalf("standalone pair %d: %v", p, err)
		}
		for i := range results {
			if results[i].err != nil {
				t.Fatalf("tenant %d: %v", i, results[i].err)
			}
			if results[i].pair != p {
				continue
			}
			for m := range ref {
				if results[i].hashes[m] != ref[m].Hash {
					t.Errorf("tenant %d move %d: %016x != standalone %016x",
						i, m, results[i].hashes[m], ref[m].Hash)
				}
			}
		}
	}
	if w := srv.Stats()["serve_worlds"]; w != 2 {
		t.Errorf("worlds=%v, want 2 (one per coupling shape)", w)
	}
}

// TestServeRouteOpensSkipCollective pins how a cold open builds its
// schedule.  With a one-entry cache every open below misses: a
// route-capable pair (both sides hpfrt or mbparti) assembles its
// schedule from the route map with no collective and is counted in
// serve_open_repaired_total; a pcxxrt pair runs the collective
// inspector and is not.  Reopening the first pair after the LRU
// evicted it assembles again — nothing outside the cache keeps an
// evicted schedule alive.  Every move stays bit-identical to a
// standalone build of the same pair.
func TestServeRouteOpensSkipCollective(t *testing.T) {
	srv, sock := startServer(t, Options{FlushWindow: -1, CacheEntries: 1})
	c := dialT(t, sock, "alice")
	defer c.Close()

	pairA := [2]DistSpec{
		{Library: "hpfrt", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
	}
	pairB := [2]DistSpec{
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{64, 64}, Procs: 2},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
	}
	pairC := [2]DistSpec{
		{Library: "pcxxrt", Layout: "roundrobin", Shape: []int{4096}, Procs: 2},
		{Library: "hpfrt", Layout: "blockvec", Shape: []int{4096}, Procs: 2},
	}
	for i, spec := range []DistSpec{pairA[0], pairA[1], pairB[0], pairB[1], pairC[0], pairC[1]} {
		if err := c.RegisterDist(i+1, spec); err != nil {
			t.Fatalf("register %d: %v", i+1, err)
		}
	}
	// Coupling 4 reopens pair A after B and C pushed it out of the
	// one-entry cache.
	opens := []struct {
		id, srcDist, dstDist int
		pair                 [2]DistSpec
		routed               float64 // serve_open_repaired_total after the open
	}{
		{1, 1, 2, pairA, 1},
		{2, 3, 4, pairB, 2},
		{3, 5, 6, pairC, 2},
		{4, 1, 2, pairA, 3},
	}
	ops := []ScriptOp{{Kind: OpMove, Seed: 3}, {Kind: OpMoveAdd, Seed: 5}, {Kind: OpMoveReverse, Seed: 7}}
	for _, o := range opens {
		warm, _, err := c.OpenCoupling(o.id, o.srcDist, o.dstDist)
		if err != nil {
			t.Fatalf("open coupling %d: %v", o.id, err)
		}
		if warm {
			t.Errorf("coupling %d: open hit the cache, want a cold build", o.id)
		}
		if got := srv.Stats()["serve_open_repaired_total"]; got != o.routed {
			t.Errorf("after opening coupling %d: route-assembled opens = %v, want %v", o.id, got, o.routed)
		}
		ref, err := Standalone(o.pair[0], o.pair[1], ops)
		if err != nil {
			t.Fatalf("standalone: %v", err)
		}
		for i, so := range ops {
			got, err := c.Move(o.id, so.Kind, so.Seed)
			if err != nil {
				t.Fatalf("coupling %d move %d: %v", o.id, i, err)
			}
			if got.Hash != ref[i].Hash {
				t.Errorf("coupling %d move %d: hash %016x != standalone %016x", o.id, i, got.Hash, ref[i].Hash)
			}
		}
	}
}
