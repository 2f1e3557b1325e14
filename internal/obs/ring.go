package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ring is the live Recorder: a preallocated circular span buffer. Record
// overwrites the oldest span once the buffer is full, so a long-running
// server always holds the most recent window of activity — the flight
// recorder model. Recording takes a mutex (spans are multi-word structs;
// a lock is the race-free way to publish them to readers) but never
// allocates; at serving rates of ~10 spans per millisecond-scale query
// the lock is far below measurement noise; `go run ./bench -trace 1`
// reports what a live ring costs a workload as obs.trace_overhead_share.
type Ring struct {
	start time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
	n     uint64 // total spans ever recorded
}

// NewRing preallocates a recorder holding the last capacity spans
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{start: time.Now(), spans: make([]Span, capacity)}
}

// Enabled reports true: a Ring always records.
func (r *Ring) Enabled() bool { return true }

// NewSpan returns a fresh non-zero span ID.
func (r *Ring) NewSpan() uint64 { return r.ids.Add(1) }

// Clock returns ns since the ring was created.
func (r *Ring) Clock() int64 { return int64(time.Since(r.start)) }

// Record stores one span, overwriting the oldest when full.
func (r *Ring) Record(s Span) {
	r.mu.Lock()
	r.spans[r.n%uint64(len(r.spans))] = s
	r.n++
	r.mu.Unlock()
}

// Cap returns the ring's span capacity.
func (r *Ring) Cap() int { return len(r.spans) }

// Len returns how many spans the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < uint64(len(r.spans)) {
		return int(r.n)
	}
	return len(r.spans)
}

// Last returns the most recent n spans in recording order (oldest
// first). It allocates the result — a cold-path (debug endpoint) call.
func (r *Ring) Last(n int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := uint64(len(r.spans))
	if r.n < held {
		held = r.n
	}
	if n <= 0 || uint64(n) > held {
		n = int(held)
	}
	out := make([]Span, n)
	for i := 0; i < n; i++ {
		idx := (r.n - uint64(n) + uint64(i)) % uint64(len(r.spans))
		out[i] = r.spans[idx]
	}
	return out
}
