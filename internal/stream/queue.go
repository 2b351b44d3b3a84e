package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cstf/internal/tensor"
)

// Policy selects what Push does when the queue is full.
type Policy int

const (
	// Block applies backpressure: Push waits for space (or Close). Use when
	// the producer can be slowed — a tailed file, a replay.
	Block Policy = iota
	// DropNewest sheds load: a Push into a full queue discards the event
	// and counts it. Use when the producer cannot be slowed — live traffic
	// — and bounded staleness beats unbounded memory.
	DropNewest
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Event is one queued nonzero plus its arrival time, the timestamp
// freshness lag is measured from.
type Event struct {
	Entry tensor.Entry
	At    time.Time
}

// QueueConfig sizes a Queue. Zero values select the defaults.
type QueueConfig struct {
	Depth  int // bounded capacity; default 8192
	Policy Policy
}

// Queue is the bounded ingest buffer between a Source's feeder goroutine
// and the updater. It is safe for one producer and one consumer (the
// pipeline's shape); counters may be read from anywhere.
type Queue struct {
	cfg       QueueConfig
	ch        chan Event
	closed    chan struct{}
	closeOnce sync.Once

	accepted atomic.Uint64
	dropped  atomic.Uint64
	blockedN atomic.Uint64 // pushes that had to wait under Block
}

// NewQueue returns an empty queue.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Depth <= 0 {
		cfg.Depth = 8192
	}
	return &Queue{
		cfg:    cfg,
		ch:     make(chan Event, cfg.Depth),
		closed: make(chan struct{}),
	}
}

// Push enqueues one event. Under Block it waits for space; under DropNewest
// a full queue discards the event. The return reports whether the event was
// accepted (false after Close or on drop).
func (q *Queue) Push(e tensor.Entry, at time.Time) bool {
	ev := Event{Entry: e, At: at}
	select {
	case <-q.closed:
		return false
	default:
	}
	select {
	case q.ch <- ev:
		q.accepted.Add(1)
		return true
	default:
	}
	switch q.cfg.Policy {
	case DropNewest:
		q.dropped.Add(1)
		return false
	default: // Block
		q.blockedN.Add(1)
		select {
		case q.ch <- ev:
			q.accepted.Add(1)
			return true
		case <-q.closed:
			return false
		}
	}
}

// Drain gathers one window: events in arrival order until there are max of
// them or until wait has passed since the call, whichever is first. Buffered
// events are always taken before the deadline or Close is looked at, so what
// a window holds depends only on which events had arrived by its deadline,
// never on how the producer's pushes interleaved with the drain: a producer
// that keeps up with max events per wait gets the same windows — full ones,
// then the remainder — at any speed. An empty window with true is a quiet
// interval.
//
// The second return is false once the queue is closed AND empty. Shutdown
// contract: when the producer calls Close after its last Push (as the
// pipeline's feeder does), every accepted event is handed out by some Drain
// before one reports false. A Close from the consumer's side abandons what
// is still buffered, and a Push racing it may be accepted and never drained.
func (q *Queue) Drain(max int, wait time.Duration) ([]Event, bool) {
	if max <= 0 {
		max = 1
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	var out []Event
	for len(out) < max {
		select {
		case ev := <-q.ch:
			out = append(out, ev)
			continue
		default:
		}
		select {
		case ev := <-q.ch:
			out = append(out, ev)
		case <-deadline.C:
			return out, true
		case <-q.closed:
			// Nothing is pushed after the producer's Close, so an empty
			// buffer now stays empty.
			select {
			case ev := <-q.ch:
				out = append(out, ev)
			default:
				return out, len(out) > 0
			}
		}
	}
	return out, true
}

// Close wakes blocked producers and marks the stream finished. Buffered
// events remain drainable. Idempotent.
func (q *Queue) Close() { q.closeOnce.Do(func() { close(q.closed) }) }

// QueueStats is a point-in-time snapshot of queue counters.
type QueueStats struct {
	Accepted uint64 `json:"accepted"`
	Dropped  uint64 `json:"dropped"`
	Blocked  uint64 `json:"blocked"` // pushes that waited for space
	Depth    int    `json:"depth"`   // events buffered right now
}

// Stats snapshots the counters.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Accepted: q.accepted.Load(),
		Dropped:  q.dropped.Load(),
		Blocked:  q.blockedN.Load(),
		Depth:    len(q.ch),
	}
}
