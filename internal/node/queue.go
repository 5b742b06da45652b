package node

import (
	"sync"
	"time"

	"repro/internal/backend"
)

// queue is a bounded FIFO on the node's backend, a lane's deliver stage: put
// blocks while it is full, get while it is empty and open, and a closed
// queue still hands out what it holds.  One reader puts and one deliver
// stage gets, so at most one of them waits and a wake-up is one Signal.  On
// the goroutine backend it is a Go lock and a sync.Cond, the cost of the
// channel it replaces.
type queue[T any] struct {
	mu      sync.Mutex
	cond    backend.Cond
	ring    []T
	head, n int
	closed  bool
}

func newQueue[T any](be backend.Backend, limit int) *queue[T] {
	q := &queue[T]{ring: make([]T, limit)}
	q.cond = be.NewCond(&q.mu)
	return q
}

// put appends v, waiting for room; it reports false once the queue is closed.
func (q *queue[T]) put(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.ring) && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
	q.cond.Signal()
	return true
}

// get takes the head, waiting while the queue is empty and open; ok is false
// once it is closed and empty.
func (q *queue[T]) get() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.ring[q.head] = q.ring[q.head], zero
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.cond.Signal()
	return v, true
}

func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close ends the queue: later puts fail, and gets return what is left.
func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// sleep parks the caller for d on the backend clock.
func sleep(be backend.Backend, d time.Duration) { be.NewEvent().WaitTimeout(d) }
