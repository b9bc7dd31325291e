package tenant

import (
	"errors"
	"sync"
	"time"
)

// Enqueue errors. ErrTenantFull is the per-tenant share bound (the
// global queue may have room that belongs to other tenants); ErrClosed
// means the scheduler was shut down.
var (
	ErrTenantFull = errors.New("tenant queue share is full")
	ErrClosed     = errors.New("scheduler is closed")
)

// WFQ is a virtual-time weighted fair queueing scheduler over
// per-tenant FIFO queues. Each enqueued item carries a cost (simulated
// instructions, here) and receives a virtual finish time
//
//	finish = max(V, lastFinish[tenant]) + cost/weight
//
// where V is the scheduler's virtual clock — the finish tag of the
// last dequeued item. Dequeue always pops the item with the smallest
// finish tag, which serves tenants in proportion to their weights
// whenever they are backlogged and gives idle tenants immediate
// service when they return (their lastFinish snaps forward to V, so an
// idle period earns no credit and costs no penalty).
//
// Safe for concurrent use. Dequeue blocks until an item is available
// or the scheduler is closed.
type WFQ struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string]*wfqQueue
	vtime  float64
	size   int
	closed bool
}

type wfqQueue struct {
	weight     float64
	items      []wfqItem // FIFO; finish tags are non-decreasing
	lastFinish float64
}

type wfqItem struct {
	payload  any
	finish   float64
	enqueued time.Time
}

// NewWFQ returns an empty scheduler.
func NewWFQ() *WFQ {
	w := &WFQ{queues: make(map[string]*wfqQueue)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Enqueue adds payload to tenant t's queue with the given cost,
// honoring maxQueued as the tenant's share bound (<= 0 means
// unbounded). Cost must be positive; zero-cost items are given cost 1
// so they still advance the virtual clock.
func (w *WFQ) Enqueue(t *Tenant, payload any, cost float64, maxQueued int) error {
	if cost <= 0 {
		cost = 1
	}
	name := DefaultName
	weight := 1.0
	if t != nil {
		name = t.Name
		weight = float64(t.EffectiveWeight())
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	q, ok := w.queues[name]
	if !ok {
		q = &wfqQueue{weight: weight}
		w.queues[name] = q
	}
	q.weight = weight // track config changes across reloads
	if maxQueued > 0 && len(q.items) >= maxQueued {
		return ErrTenantFull
	}
	start := w.vtime
	if q.lastFinish > start {
		start = q.lastFinish
	}
	finish := start + cost/weight
	q.lastFinish = finish
	q.items = append(q.items, wfqItem{payload: payload, finish: finish, enqueued: time.Now()})
	w.size++
	w.cond.Signal()
	return nil
}

// Dequeue removes and returns the item with the smallest virtual
// finish tag, blocking until one is available. ok is false once the
// scheduler is closed and drained of nothing — close wakes all
// waiters; items enqueued before Close are still returned.
func (w *WFQ) Dequeue() (payload any, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.size > 0 {
			var best *wfqQueue
			var bestName string
			for name, q := range w.queues {
				if len(q.items) == 0 {
					continue
				}
				if best == nil || q.items[0].finish < best.items[0].finish ||
					(q.items[0].finish == best.items[0].finish && name < bestName) {
					best = q
					bestName = name
				}
			}
			it := best.items[0]
			best.items = best.items[1:]
			w.size--
			if it.finish > w.vtime {
				w.vtime = it.finish
			}
			return it.payload, true
		}
		if w.closed {
			return nil, false
		}
		w.cond.Wait()
	}
}

// Close wakes every blocked Dequeue. Items already queued are still
// handed out; once the scheduler is empty Dequeue returns ok=false.
func (w *WFQ) Close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Len returns the total queued items.
func (w *WFQ) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// TenantLen returns one tenant's queued items.
func (w *WFQ) TenantLen(name string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if q, ok := w.queues[name]; ok {
		return len(q.items)
	}
	return 0
}

// OldestWait returns how long tenant name's head-of-line item has been
// queued as of now — the starvation signal: under fair weighted service
// it stays bounded by the tenant's share of drain capacity, and grows
// without bound only when the tenant is starved or the pool is wedged.
// Zero when the tenant has nothing queued.
func (w *WFQ) OldestWait(name string, now time.Time) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	q, ok := w.queues[name]
	if !ok || len(q.items) == 0 {
		return 0
	}
	d := now.Sub(q.items[0].enqueued)
	if d < 0 {
		return 0
	}
	return d
}

// Remove deletes the first queued item for which match returns true,
// returning whether one was found (for cancellation of queued jobs).
func (w *WFQ) Remove(match func(payload any) bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, q := range w.queues {
		for i, it := range q.items {
			if match(it.payload) {
				q.items = append(q.items[:i], q.items[i+1:]...)
				w.size--
				return true
			}
		}
	}
	return false
}
