package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// Per-query budget of a cold /topk through the handler: what the serving
// path allocates itself, beyond net/http's own connection and request
// state. The query's result slice, its request and result channel, the
// parsed query and the cache entry fit in it; a map-built response or a
// per-batch scan buffer does not.
const (
	coldTopKAllocs = 16
	coldTopKBytes  = 1536
)

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body bytes, so the writer adds no allocations of its own.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestColdTopKAllocBudget holds one cold /topk — a cache miss that goes
// through the queue, the executor's scan and the JSON response — through
// NewHandler(...).ServeHTTP with the default Config to the budget above:
// allocations counted by testing.AllocsPerRun, bytes by runtime.MemStats.
// Every call queries a row not asked before, so none is a cache hit.
func TestColdTopKAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := randModel(t, 5, 16, 30_001, 2_000, 7)
	s, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)
	reqs := make([]*http.Request, m.Dims[1])
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/topk?mode=0&row=%d&k=10", i), nil)
	}
	w := &discardWriter{h: http.Header{}}
	next := 0
	query := func() {
		clear(w.h)
		h.ServeHTTP(w, reqs[next])
		next++
		if w.code != http.StatusOK {
			t.Fatalf("query %d: status %d", next-1, w.code)
		}
	}
	for i := 0; i < 20; i++ { // size the executor's scratch and the pools
		query()
	}
	allocs := testing.AllocsPerRun(500, query)
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("cold /topk: %.1f allocations, %.0f B per query", allocs, perQuery)
	if allocs > coldTopKAllocs {
		t.Errorf("cold /topk makes %.1f allocations per query, budget %d", allocs, coldTopKAllocs)
	}
	if perQuery > coldTopKBytes {
		t.Errorf("cold /topk allocates %.0f B per query, budget %d B", perQuery, coldTopKBytes)
	}
}
