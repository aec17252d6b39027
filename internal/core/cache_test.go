package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"metachaos/internal/mpsim"
)

func TestScheduleCacheHitsAndMisses(t *testing.T) {
	mpsim.RunSPMD(mpsim.SP2(), 2, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(20, 2, 1, p.Rank())
		dst := newTestObj(20, 2, 1, p.Rank())
		cache := NewScheduleCache()
		builds := 0
		build := func() (*Schedule, error) {
			builds++
			return ComputeSchedule(SingleProgram(p.Comm()),
				&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(testRegion(seqIdx(0, 10, 1))), Ctx: ctx},
				&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(testRegion(seqIdx(10, 10, 1))), Ctx: ctx},
				Cooperation)
		}
		var before float64
		for iter := 0; iter < 5; iter++ {
			s, err := cache.Get("loop-17", Float64, build)
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			if iter == 1 {
				before = p.Clock()
			}
			s.Move(src, dst)
		}
		_ = before
		if builds != 1 {
			t.Errorf("build ran %d times, want 1", builds)
		}
		hits, misses := cache.Counters()
		if hits != 4 || misses != 1 {
			t.Errorf("hits=%d misses=%d", hits, misses)
		}
		if cache.Len() != 1 {
			t.Errorf("Len=%d", cache.Len())
		}
		cache.Invalidate("loop-17")
		if cache.Len() != 0 {
			t.Error("Invalidate did not drop the entry")
		}
		if _, err := cache.Get("loop-17", Float64, build); err != nil {
			t.Errorf("rebuild after invalidate: %v", err)
		}
		if builds != 2 {
			t.Errorf("builds=%d want 2", builds)
		}
		cache.Clear()
		if cache.Len() != 0 {
			t.Error("Clear left entries")
		}
	})
}

func TestScheduleCacheDoesNotCacheFailures(t *testing.T) {
	cache := NewScheduleCache()
	calls := 0
	fail := func() (*Schedule, error) {
		calls++
		return nil, errors.New("boom")
	}
	if _, err := cache.Get("k", Float64, fail); err == nil {
		t.Fatal("expected error")
	}
	if _, err := cache.Get("k", Float64, fail); err == nil {
		t.Fatal("expected error on retry")
	}
	if calls != 2 {
		t.Errorf("failed build cached: %d calls", calls)
	}
	if cache.Len() != 0 {
		t.Error("failure left an entry")
	}
}

// TestScheduleCacheKeyedByElemType pins the bugfix: the same caller key
// used for two element types builds two distinct schedules — a float64
// schedule is never served for a same-width int64 transfer — and a
// build whose schedule disagrees with the declared element type is
// rejected rather than cached.
func TestScheduleCacheKeyedByElemType(t *testing.T) {
	cache := NewScheduleCache()
	builds := 0
	buildFor := func(et ElemType) func() (*Schedule, error) {
		return func() (*Schedule, error) {
			builds++
			return &Schedule{elem: et}, nil
		}
	}
	f, err := cache.Get("loop-3", Float64, buildFor(Float64))
	if err != nil {
		t.Fatal(err)
	}
	i, err := cache.Get("loop-3", Int64, buildFor(Int64))
	if err != nil {
		t.Fatal(err)
	}
	if f == i {
		t.Fatal("float64 and int64 transfers shared one cached schedule")
	}
	if builds != 2 || cache.Len() != 2 {
		t.Errorf("builds=%d Len=%d, want 2 entries", builds, cache.Len())
	}
	// Hits stay per-type.
	if s, _ := cache.Get("loop-3", Float64, buildFor(Float64)); s != f {
		t.Error("float64 hit returned a different schedule")
	}
	if builds != 2 {
		t.Errorf("hit rebuilt: builds=%d", builds)
	}
	// A schedule that contradicts the declared type is rejected.
	if _, err := cache.Get("bad", Float32, buildFor(Int32)); err == nil {
		t.Error("mismatched element type accepted into the cache")
	}
	if cache.Len() != 2 {
		t.Errorf("mismatch was cached: Len=%d", cache.Len())
	}
	// Invalidate drops the key's entries for every element type.
	cache.Invalidate("loop-3")
	if cache.Len() != 0 {
		t.Errorf("Invalidate left %d entries", cache.Len())
	}
}

// TestScheduleCachePut pins the explicit-insert path: a Put schedule
// is served by Get without a build, and a Put whose schedule
// contradicts the declared element type is rejected.
func TestScheduleCachePut(t *testing.T) {
	cache := NewScheduleCache()
	s := &Schedule{elem: Float64}
	if err := cache.Put("warm", Float64, s); err != nil {
		t.Fatal(err)
	}
	got, err := cache.Get("warm", Float64, func() (*Schedule, error) {
		t.Error("Get rebuilt a schedule Put already inserted")
		return nil, errors.New("unreachable")
	})
	if err != nil || got != s {
		t.Fatalf("Get after Put: got %p err %v, want the Put schedule", got, err)
	}
	if err := cache.Put("bad", Float32, &Schedule{elem: Int64}); err == nil {
		t.Error("Put accepted a schedule whose element type contradicts the key")
	}
	if err := cache.Put("nil", Float64, nil); err == nil {
		t.Error("Put accepted a nil schedule")
	}
}

// TestScheduleCacheConcurrent hammers one cache from many goroutines —
// Get (hit and miss), Put, Invalidate, SetIncarnation, Clear and the
// read-side accessors all interleave.  The coupling service shares a
// cache across tenant sessions, so this must be provably clean under
// the race detector before the service can stand on it.  The test
// asserts no race, no lost schedule (every Get returns a schedule of
// the declared element type), and a coherent final state.
func TestScheduleCacheConcurrent(t *testing.T) {
	cache := NewScheduleCache()
	keys := []string{"pair-a", "pair-b", "pair-c", "pair-d"}
	elems := []ElemType{Float64, Int64, Float32}
	var wg sync.WaitGroup
	const workers = 16
	const iters = 400
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(g+i)%len(keys)]
				et := elems[(g*7+i)%len(elems)]
				switch i % 8 {
				case 6:
					if err := cache.Put(key, et, &Schedule{elem: et}); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 7:
					switch g % 3 {
					case 0:
						cache.Invalidate(key)
					case 1:
						cache.SetIncarnation(i % 5)
					default:
						cache.Clear()
					}
				default:
					s, err := cache.Get(key, et, func() (*Schedule, error) {
						return &Schedule{elem: et}, nil
					})
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if s.elem != et {
						t.Errorf("Get(%q, %v) returned a %v schedule", key, et, s.elem)
						return
					}
				}
				cache.Len()
				cache.Counters()
				cache.Incarnation()
			}
		}(g)
	}
	wg.Wait()
	hits, misses := cache.Counters()
	if hits+misses == 0 {
		t.Error("no lookups were counted")
	}
	if cache.Len() > len(keys)*len(elems) {
		t.Errorf("cache holds %d entries, more than the %d possible keys",
			cache.Len(), len(keys)*len(elems))
	}
}

// TestScheduleCacheLRUBound pins the bounded-cache contract: with a
// limit set, inserts evict the least-recently-used entry (a Get hit
// counts as use), the eviction counter tracks every displacement, and
// shrinking the limit evicts down immediately.  Eviction order is a
// pure function of the Get/Put stream, which is what lets SPMD callers
// run bounded caches without desynchronizing across ranks.
func TestScheduleCacheLRUBound(t *testing.T) {
	cache := NewScheduleCache()
	builds := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := cache.Get(key, Float64, func() (*Schedule, error) {
			builds[key]++
			return &Schedule{elem: Float64}, nil
		}); err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
	}

	cache.SetLimit(2)
	get("A") // build; {A}
	get("B") // build; {A, B}
	get("A") // hit: A is now fresher than B
	get("C") // build; evicts B (LRU); {A, C}
	get("A") // hit
	get("B") // rebuild; evicts C; {A, B}
	get("A") // hit

	if want := map[string]int{"A": 1, "B": 2, "C": 1}; builds["A"] != want["A"] || builds["B"] != want["B"] || builds["C"] != want["C"] {
		t.Errorf("builds = %v, want %v", builds, want)
	}
	if ev := cache.Evictions(); ev != 2 {
		t.Errorf("Evictions() = %d, want 2", ev)
	}
	if cache.Len() != 2 {
		t.Errorf("Len() = %d, want 2", cache.Len())
	}
	hits, misses := cache.Counters()
	if hits != 3 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want 3/4", hits, misses)
	}

	// Shrinking the limit evicts down to the new bound at once.
	cache.SetLimit(1)
	if cache.Len() != 1 || cache.Evictions() != 3 {
		t.Errorf("after SetLimit(1): Len=%d Evictions=%d, want 1/3", cache.Len(), cache.Evictions())
	}
	// The survivor is the most recently used entry.
	get("A")
	if builds["A"] != 1 {
		t.Errorf("A was evicted instead of the LRU entry (built %d times)", builds["A"])
	}

	// SetLimit(0) restores the unbounded default.
	cache.SetLimit(0)
	for _, k := range []string{"D", "E", "F", "G"} {
		get(k)
	}
	if cache.Len() != 5 {
		t.Errorf("unbounded Len() = %d, want 5", cache.Len())
	}
	if cache.Evictions() != 3 {
		t.Errorf("unbounded inserts evicted: %d, want 3", cache.Evictions())
	}
}

// TestScheduleCacheUnboundedByDefault pins that the zero value never
// evicts, whatever the insert volume — existing callers see no
// behavior change from the bounded-cache feature.
func TestScheduleCacheUnboundedByDefault(t *testing.T) {
	cache := NewScheduleCache()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := cache.Get(key, Float64, func() (*Schedule, error) {
			return &Schedule{elem: Float64}, nil
		}); err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
	}
	if cache.Len() != 500 {
		t.Errorf("Len() = %d, want 500", cache.Len())
	}
	if cache.Evictions() != 0 {
		t.Errorf("Evictions() = %d, want 0", cache.Evictions())
	}
}

// TestScheduleCacheSetIncarnation pins the membership keying the
// elastic grow path relies on: a same-incarnation call keeps every
// entry, a new incarnation drops them all so the next Get rebuilds,
// and a schedule built while the incarnation changed is returned to
// its caller but not cached.
func TestScheduleCacheSetIncarnation(t *testing.T) {
	cache := NewScheduleCache()
	old := &Schedule{elem: Float64}
	if err := cache.Put("vec", Float64, old); err != nil {
		t.Fatal(err)
	}
	cache.SetIncarnation(0)
	if got, _ := cache.Get("vec", Float64, func() (*Schedule, error) {
		t.Error("a same-incarnation call dropped a current entry")
		return &Schedule{elem: Float64}, nil
	}); got != old {
		t.Fatalf("Get = %p, want the cached entry %p", got, old)
	}

	cache.SetIncarnation(1)
	if cache.Len() != 0 || cache.Incarnation() != 1 {
		t.Fatalf("after a new incarnation: Len %d, Incarnation %d; want 0, 1", cache.Len(), cache.Incarnation())
	}
	built := &Schedule{elem: Float64}
	if got, _ := cache.Get("vec", Float64, func() (*Schedule, error) { return built, nil }); got != built {
		t.Fatalf("Get = %p, want a rebuild %p, not the previous incarnation's entry", got, built)
	}

	straddle := &Schedule{elem: Float64}
	got, err := cache.Get("other", Float64, func() (*Schedule, error) {
		cache.SetIncarnation(2)
		return straddle, nil
	})
	if err != nil || got != straddle {
		t.Fatalf("straddling Get = %p, %v; want the built schedule", got, err)
	}
	if cache.Len() != 0 {
		t.Errorf("a schedule built across an incarnation change was cached (Len %d)", cache.Len())
	}
}
