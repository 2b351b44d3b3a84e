package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Drain must reject new queries with ErrDraining, finish every accepted
// one, and Resume must re-admit traffic — the replica-side half of the
// fleet's zero-drop rolling reload.
func TestDrainRejectsNewFinishesInflight(t *testing.T) {
	m := randModel(t, 3, 3, 400, 50, 30)
	s, err := newServer(m, Config{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Launch queries that sit in the queue of an executor that has not
	// started yet, then drain while they are in flight: the executor
	// starts only once the drain has begun.
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.TopK(context.Background(), 0, 1, i, 5)
		}(i)
	}
	// Wait until every client has been accepted before draining.
	for len(s.reqs) < n {
		time.Sleep(100 * time.Microsecond) // poll: accepting a request fires no event
	}
	go func() {
		for !s.Draining() {
			time.Sleep(100 * time.Microsecond) // poll: Drain fires no event when it starts
		}
		s.done.Add(1)
		go s.dispatch()
	}()
	s.Drain()

	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if got := s.Stats().Inflight; got != 0 {
		t.Fatalf("inflight %d after Drain returned", got)
	}
	wg.Wait()
	for i, err := range errs {
		// Accepted-before-drain queries must have succeeded; ones that
		// raced in after the flag flipped must be ErrDraining — never a
		// dropped or failed query.
		if err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	if _, err := s.TopK(context.Background(), 0, 1, 1, 5); !errors.Is(err, ErrDraining) {
		t.Fatalf("TopK while draining: %v, want ErrDraining", err)
	}
	if _, err := s.Predict(context.Background(), 1, 2, 3); !errors.Is(err, ErrDraining) {
		t.Fatalf("Predict while draining: %v, want ErrDraining", err)
	}
	if _, err := s.Rank(context.Background(), Query{Kind: Similar, Mode: 0, Row: 1, K: 5}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Similar while draining: %v, want ErrDraining", err)
	}

	s.Resume()
	if _, err := s.TopK(context.Background(), 0, 1, 1, 5); err != nil {
		t.Fatalf("TopK after Resume: %v", err)
	}
}

// A drained server can swap models and resume — the reload step of the
// rolling sequence — and queries after Resume see the new version.
func TestDrainReloadResume(t *testing.T) {
	m := randModel(t, 3, 3, 200, 40)
	s, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v0 := s.Model().Version

	s.Drain()
	s.Swap(randModel(t, 4, 3, 200, 40))
	s.Resume()

	if got := s.Model().Version; got <= v0 {
		t.Fatalf("version %d after swap, want > %d", got, v0)
	}
	if _, err := s.TopK(context.Background(), 0, 1, 1, 5); err != nil {
		t.Fatalf("TopK after drain/swap/resume: %v", err)
	}
}
