package core

import (
	"fmt"
	"strings"
	"sync"
)

// ScheduleCache memoizes communication schedules under caller-chosen
// keys.  Compilers targeting the original runtime libraries wrapped
// every inspector in exactly this pattern — "reuse the schedule if
// this loop's communication pattern was already analyzed" — and the
// paper's amortization argument (Section 4.1.4) rests on it.
//
// Keys must be derived deterministically from SPMD-replicated state so
// that every process of the program hits or misses together; a cache
// that diverges across processes would desynchronize the collective
// schedule computation.  The zero value is ready to use.
//
// A cache is safe for concurrent use.  The coupling service
// (internal/serve) keeps one cache per resident simulated rank and
// shares it across every tenant session multiplexed onto that world,
// so lookups, inserts and incarnation bumps may arrive from more than
// one goroutine.  Get never holds the lock across the build callback:
// schedule construction is collective over simulated processes, and a
// lock held through a collective would deadlock the ranks against each
// other.
type ScheduleCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
	misses  int
	// limit bounds len(entries); 0 (the default) is unbounded.  At the
	// limit an insert evicts the least-recently-used entry (see
	// SetLimit) — eviction order is a pure function of the Get/Put
	// stream, so SPMD callers issuing identical streams evict
	// identically on every rank.
	limit     int
	evictions int
	tick      int64
	// incarnation is the group-membership generation the cached
	// schedules were computed under (see SetIncarnation).
	incarnation int
}

// cacheEntry pairs a cached schedule with its last-use stamp.
type cacheEntry struct {
	s    *Schedule
	tick int64
}

// NewScheduleCache returns an empty cache.
func NewScheduleCache() *ScheduleCache {
	return &ScheduleCache{}
}

// Get returns the schedule cached under key for element type et,
// building and caching it with build on a miss.  A failed build is not
// cached.  The element type is part of the cache key, so two transfers
// that share a caller key but move different element types — say a
// 1-word float64 array and a same-width int64 array — can never be
// served each other's schedule; Get also rejects a built schedule
// whose element type disagrees with et, which would otherwise poison
// the cache.
//
// build runs outside the cache lock (it is collective; see the type
// comment).  If a concurrent Get for the same key finishes its build
// first, the first inserted schedule wins and later builders get it;
// if SetIncarnation invalidated the cache while build ran, the built
// schedule is returned to the caller but not cached — it was computed
// under a group generation the cache no longer trusts.
func (c *ScheduleCache) Get(key string, et ElemType, build func() (*Schedule, error)) (*Schedule, error) {
	full := key + "|" + et.String()
	c.mu.Lock()
	if e, ok := c.entries[full]; ok {
		c.hits++
		c.tick++
		e.tick = c.tick
		s := e.s
		c.mu.Unlock()
		return s, nil
	}
	c.misses++
	gen := c.incarnation
	c.mu.Unlock()

	s, err := build()
	if err != nil {
		return nil, fmt.Errorf("core: building schedule for cache key %q: %w", key, err)
	}
	if s.elem != et {
		return nil, fmt.Errorf("core: schedule built for cache key %q moves %v elements, caller declared %v", key, s.elem, et)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.incarnation != gen {
		// The group changed underneath the build; hand the schedule to
		// this caller but do not let it outlive the membership it was
		// computed for.
		return s, nil
	}
	if prev, ok := c.entries[full]; ok {
		// A concurrent builder won the insert race; converge on its
		// schedule so every caller shares one executor scratch.
		return prev.s, nil
	}
	c.insertLocked(full, s)
	return s, nil
}

// insertLocked stores s under the full (key|elem) string, evicting the
// least-recently-used entries first when a limit is set; callers hold
// mu.
func (c *ScheduleCache) insertLocked(full string, s *Schedule) {
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	if _, replacing := c.entries[full]; !replacing {
		c.evictDownToLocked(c.limit - 1)
	}
	c.tick++
	c.entries[full] = &cacheEntry{s: s, tick: c.tick}
}

// evictDownToLocked drops least-recently-used entries until at most n
// remain (no-op when the cache is unbounded or already small enough);
// callers hold mu.  The linear minimum scan is deliberate: limits are
// small and eviction is rare, so an ordered index would cost more on
// every hit than it saves here.
func (c *ScheduleCache) evictDownToLocked(n int) {
	if c.limit <= 0 || n < 0 {
		return
	}
	for len(c.entries) > n {
		oldest := ""
		for k, e := range c.entries {
			if oldest == "" || e.tick < c.entries[oldest].tick {
				oldest = k
			}
		}
		c.entries[oldest].s.releaseScratch()
		delete(c.entries, oldest)
		c.evictions++
	}
}

// SetLimit bounds the cache to at most n entries, evicting the
// least-recently-used down to the bound immediately; n <= 0 restores
// the unbounded default.  Like every other mutation, the call must be
// issued identically by every rank of an SPMD caller.
func (c *ScheduleCache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		c.limit = 0
		return
	}
	c.limit = n
	c.evictDownToLocked(n)
}

// Evictions returns how many entries the limit has pushed out.
func (c *ScheduleCache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Put inserts an already-built schedule under key, the explicit-insert
// counterpart of Get for callers that computed the schedule before
// deciding to share it.  Inserting over an existing entry replaces it;
// a schedule whose element type disagrees with et is rejected.
func (c *ScheduleCache) Put(key string, et ElemType, s *Schedule) error {
	if s == nil {
		return fmt.Errorf("core: caching nil schedule under key %q", key)
	}
	if s.elem != et {
		return fmt.Errorf("core: schedule cached under key %q moves %v elements, caller declared %v", key, s.elem, et)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key+"|"+et.String(), s)
	return nil
}

// Invalidate drops key's entries for every element type (after a
// redistribution, for example).  Dropping a missing key is a no-op.
// Evicted schedules return their pooled staging segments.
func (c *ScheduleCache) Invalidate(key string) {
	prefix := key + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if strings.HasPrefix(k, prefix) {
			e.s.releaseScratch()
			delete(c.entries, k)
		}
	}
}

// Clear drops every entry but keeps the hit/miss counters.  Evicted
// schedules return their pooled staging segments.
func (c *ScheduleCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		e.s.releaseScratch()
	}
	c.entries = nil
}

// SetIncarnation keys the whole cache on the group-membership
// generation (mpsim.Proc.GroupIncarnation): when n differs from the
// cache's current incarnation every entry is dropped, because a
// schedule computed under an older group may route lanes to ranks that
// are now dead or renumbered.  Same-incarnation calls are free, so
// recovery loops can call it before every cached lookup.
func (c *ScheduleCache) SetIncarnation(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n != c.incarnation {
		c.incarnation = n
		for _, e := range c.entries {
			e.s.releaseScratch()
		}
		c.entries = nil
	}
}

// Incarnation returns the generation the cache is currently keyed on.
func (c *ScheduleCache) Incarnation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incarnation
}

// Len returns the number of cached schedules.
func (c *ScheduleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters returns the accumulated hit and miss counts.
func (c *ScheduleCache) Counters() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
