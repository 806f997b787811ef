package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// staleArena is the bounded LRU holding radius-invalidated cache entries for
// stale-while-revalidate serving.  When ApplyUpdates drops an entry from the
// result cache, the entry moves here (same key, same zero-copy Response,
// same exact byte cost) instead of being freed; under pressure tiers whose
// policy sets ServeStale, Engine.Do serves these entries labeled
// Degraded == DegradedStale with their pre-update epoch while a background
// singleflight recomputes the fresh answer.
//
// The arena's byte budget is carved out of Config.CacheBytes (see
// PressureConfig.StaleFraction), so stale entries always count against the
// configured cache budget — cache bytes + arena bytes never exceed
// Config.CacheBytes.
//
// A single mutex suffices: entries arrive only on the (rare) update path and
// are read only under pressure; there is no steady-state hot-path traffic.
type staleArena struct {
	mu     sync.Mutex
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	bytes  int64
	budget int64

	// evicted counts entries dropped to fit the budget (not revalidations).
	evicted atomic.Int64
}

// staleEntry is one parked response.  revalidating is the background
// singleflight guard: the first stale serve to CAS it true owns the
// recomputation; it resets when the recompute finishes (successfully or not).
type staleEntry struct {
	key          string
	resp         *Response
	cost         int64
	revalidating atomic.Bool
}

func newStaleArena(budget int64) *staleArena {
	return &staleArena{
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		budget: budget,
	}
}

// put parks resp under key, evicting least-recently-used entries to fit the
// budget.  An entry costlier than the whole budget is dropped outright.  A
// newer response for the same key replaces the old one.
func (a *staleArena) put(key string, resp *Response, cost int64) {
	if cost > a.budget {
		a.evicted.Add(1)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.items[key]; ok {
		ent := el.Value.(*staleEntry)
		a.bytes += cost - ent.cost
		ent.resp, ent.cost = resp, cost
		a.ll.MoveToFront(el)
	} else {
		a.items[key] = a.ll.PushFront(&staleEntry{key: key, resp: resp, cost: cost})
		a.bytes += cost
	}
	for a.bytes > a.budget {
		tail := a.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*staleEntry)
		a.ll.Remove(tail)
		delete(a.items, ent.key)
		a.bytes -= ent.cost
		a.evicted.Add(1)
	}
}

// get returns the parked entry for key and its response, promoting it to
// most recent.  The response is read under the lock because put may swap a
// newer one into the same entry; it stays shared — serve it zero-copy and
// read-only.
func (a *staleArena) get(key string) (*staleEntry, *Response, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.items[key]
	if !ok {
		return nil, nil, false
	}
	a.ll.MoveToFront(el)
	ent := el.Value.(*staleEntry)
	return ent, ent.resp, true
}

// remove drops key's entry if it is still the given one (a concurrent update
// may have replaced it with a newer stale response, which must survive).
func (a *staleArena) remove(key string, ent *staleEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.items[key]
	if !ok || el.Value.(*staleEntry) != ent {
		return
	}
	a.ll.Remove(el)
	delete(a.items, key)
	a.bytes -= ent.cost
}

// stats returns the entry count and pinned bytes.
func (a *staleArena) stats() (entries, bytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.ll.Len()), a.bytes
}
