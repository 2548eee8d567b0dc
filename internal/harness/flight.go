package harness

import (
	"sort"
	"sync"
)

// flight is a memo whose fills are single-flight: concurrent requests
// for one key share a single fill, different keys fill in parallel. A
// fill that panics hands the panic value to its joiners (they re-panic
// instead of deadlocking) and leaves the key unregistered, so a later
// caller retries rather than joining a dead call; whatever the fill
// holds — pool slots, store claims — it releases through its own
// defers. The zero value is ready to use.
type flight[V any] struct {
	mu    sync.Mutex
	vals  map[string]V
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done     chan struct{}
	v        V
	panicked any
}

// do returns key's value, filling it on first use. shared reports that
// the value came from the memo or another caller's fill.
func (f *flight[V]) do(key string, fill func() V) (v V, shared bool) {
	f.mu.Lock()
	if v, ok := f.vals[key]; ok {
		f.mu.Unlock()
		return v, true
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.v, true
	}
	if f.vals == nil {
		f.vals = make(map[string]V)
		f.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	defer func() {
		c.panicked = recover()
		f.mu.Lock()
		delete(f.calls, key)
		if c.panicked == nil {
			f.vals[key] = c.v
		}
		f.mu.Unlock()
		close(c.done)
		if c.panicked != nil {
			panic(c.panicked)
		}
	}()
	c.v = fill()
	return c.v, false
}

// has reports whether key is memoized or being filled.
func (f *flight[V]) has(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, done := f.vals[key]
	_, running := f.calls[key]
	return done || running
}

// keys lists the memoized keys in sorted order.
func (f *flight[V]) keys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.vals))
	for k := range f.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
