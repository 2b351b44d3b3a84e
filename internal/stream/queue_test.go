package stream

import (
	"runtime"
	"testing"
	"time"

	"cstf/internal/tensor"
)

func entryAt(i int) tensor.Entry {
	var e tensor.Entry
	e.Idx[0] = uint32(i)
	e.Val = float64(i)
	return e
}

func TestQueueDropNewestSheds(t *testing.T) {
	q := NewQueue(QueueConfig{Depth: 2, Policy: DropNewest})
	now := time.Now()
	if !q.Push(entryAt(0), now) || !q.Push(entryAt(1), now) {
		t.Fatal("pushes into a non-full queue must be accepted")
	}
	if q.Push(entryAt(2), now) {
		t.Fatal("push into a full DropNewest queue must be dropped")
	}
	st := q.Stats()
	if st.Accepted != 2 || st.Dropped != 1 || st.Depth != 2 {
		t.Fatalf("stats = %+v, want accepted 2 dropped 1 depth 2", st)
	}
	evs, more := q.Drain(10, time.Millisecond)
	if !more || len(evs) != 2 {
		t.Fatalf("drain got %d events (more=%v), want 2", len(evs), more)
	}
	if evs[0].Entry.Idx[0] != 0 || evs[1].Entry.Idx[0] != 1 {
		t.Fatalf("drain order wrong: %v", evs)
	}
}

func TestQueueBlockAppliesBackpressure(t *testing.T) {
	q := NewQueue(QueueConfig{Depth: 1, Policy: Block})
	now := time.Now()
	q.Push(entryAt(0), now)

	unblocked := make(chan bool, 1)
	go func() { unblocked <- q.Push(entryAt(1), now) }()

	select {
	case <-unblocked:
		t.Fatal("push into a full Block queue returned without a consumer")
	case <-time.After(20 * time.Millisecond):
	}
	evs, _ := q.Drain(1, time.Second)
	if len(evs) != 1 {
		t.Fatalf("drain got %d events, want 1", len(evs))
	}
	if ok := <-unblocked; !ok {
		t.Fatal("blocked push must succeed once space frees up")
	}
	if st := q.Stats(); st.Blocked != 1 {
		t.Fatalf("blocked counter = %d, want 1", st.Blocked)
	}
}

func TestQueueCloseUnblocksAndDrainsRemainder(t *testing.T) {
	q := NewQueue(QueueConfig{Depth: 1, Policy: Block})
	now := time.Now()
	q.Push(entryAt(0), now)

	unblocked := make(chan bool, 1)
	go func() { unblocked <- q.Push(entryAt(1), now) }()
	time.Sleep(5 * time.Millisecond) // let the Push block on the full queue; if it starts after Close it is rejected all the same
	q.Close()
	if ok := <-unblocked; ok {
		t.Fatal("push blocked at Close must report rejection")
	}

	// The buffered event survives Close; after it is gone Drain reports done.
	evs, more := q.Drain(10, time.Millisecond)
	if len(evs) != 1 || !more {
		t.Fatalf("drain after close: %d events, more=%v; want 1, true", len(evs), more)
	}
	evs, more = q.Drain(10, time.Millisecond)
	if len(evs) != 0 || more {
		t.Fatalf("second drain after close: %d events, more=%v; want 0, false", len(evs), more)
	}
	if q.Push(entryAt(2), now) {
		t.Fatal("push after close must be rejected")
	}
}

func TestQueueDrainQuietInterval(t *testing.T) {
	q := NewQueue(QueueConfig{Depth: 4})
	start := time.Now()
	evs, more := q.Drain(4, 10*time.Millisecond)
	if len(evs) != 0 || !more {
		t.Fatalf("quiet drain: %d events, more=%v; want 0, true", len(evs), more)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("quiet drain returned before its wait elapsed")
	}
}

// The same events pushed at three feeder speeds, through a buffer smaller
// than a window so every window needs the feeder and the drain to
// interleave, come out as the same windows: full ones in arrival order, then
// the remainder. And the shutdown contract: the feeder closes after its last
// push, and every accepted event is drained before Drain reports done.
func TestDrainWindowsIndependentOfFeederSpeed(t *testing.T) {
	const total, window = 1000, 64
	feeders := map[string]func(i int){
		"flat out": func(int) {},
		"yielding": func(int) { runtime.Gosched() },
		"bursty": func(i int) {
			if i%100 == 99 {
				// Paces the feeder only; the drain deadline below is
				// three orders of magnitude away, so this cannot flake.
				time.Sleep(2 * time.Millisecond)
			}
		},
	}
	for name, pace := range feeders {
		q := NewQueue(QueueConfig{Depth: 16, Policy: Block})
		go func() {
			defer q.Close()
			for i := 0; i < total; i++ {
				if !q.Push(entryAt(i), time.Time{}) {
					t.Errorf("%s: push %d rejected", name, i)
				}
				pace(i)
			}
		}()
		next := 0
		for {
			evs, more := q.Drain(window, 10*time.Second)
			if want := min(window, total-next); len(evs) != want {
				t.Fatalf("%s: window at event %d holds %d events, want %d", name, next, len(evs), want)
			}
			for _, ev := range evs {
				if int(ev.Entry.Idx[0]) != next {
					t.Fatalf("%s: event %d arrived where %d was due", name, ev.Entry.Idx[0], next)
				}
				next++
			}
			if !more {
				break
			}
		}
		if st := q.Stats(); next != total || st.Accepted != total || st.Depth != 0 {
			t.Fatalf("%s: drained %d of %d events, stats %+v", name, next, total, st)
		}
	}
}

// A window that cannot fill closes at its deadline with what has arrived.
func TestDrainReturnsPartialWindowAtDeadline(t *testing.T) {
	q := NewQueue(QueueConfig{Depth: 8})
	for i := 0; i < 3; i++ {
		q.Push(entryAt(i), time.Time{})
	}
	start := time.Now()
	evs, more := q.Drain(8, 10*time.Millisecond)
	if len(evs) != 3 || !more {
		t.Fatalf("drain got %d events, more=%v; want 3, true", len(evs), more)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("partial window returned before its deadline")
	}
}
