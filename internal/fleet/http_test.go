package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cstf/internal/serve"
)

// Every ranked-query parameter either shapes the answer or is a 400 that
// names it — on a replica's handler and on the router's, in affinity and
// in shard mode. A candidate range is honored: the answer is the model's
// ranking of exactly those rows, so an empty range, [0,0) included,
// answers nothing.
func TestRankedParametersAreNeverDropped(t *testing.T) {
	path := writeCheckpoint(t, t.TempDir(), 3, 4, 1, 600, 300, 80)
	single, err := serve.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	lf, _ := startFleet(t, path, 3, false)
	_, sharded := startFleet(t, path, 3, true)
	_, affinity := startFleet(t, path, 3, false)
	handlers := map[string]http.Handler{
		"replica":         serve.NewHandler(lf.Replicas[0].Server),
		"router":          NewHandler(affinity),
		"router (shards)": NewHandler(sharded),
	}
	rejected := []struct{ target, names string }{
		{"/topk?mode=0&row=7&k=3&lo=100", "lo"},
		{"/topk?mode=0&row=7&k=3&hi=5", "hi"},
		{"/similar?mode=0&row=7&k=3&lo=100", "lo"},
		{"/similar?mode=0&row=7&k=3&exclude=0,1,2,38,40", "exclude"},
		{"/similar?mode=0&row=7&k=3&given=2", "given"},
		{"/similar?mode=0&row=7,8&k=3", "row"},
		{"/topk?mode=0&given=1,2&row=7&k=3", "given"},
		{"/topk?mode=0&row=7,8&k=3", "row"},
		{"/topk?mode=0&row=7&k=3&lo=50&hi=40", "range"},
		{"/topk?mode=0&row=7&k=3&lo=0&hi=601", "range"},
		{"/similar?mode=0&row=7&k=3&lo=-1&hi=-1", "range"},
	}
	honored := []struct {
		target string
		q      serve.Query
	}{
		{"/topk?mode=0&row=7&k=3&lo=100&hi=200", serve.Query{Mode: 0, Given: []serve.Cond{{Mode: 1, Row: 7}}, K: 3, Range: &serve.Range{Lo: 100, Hi: 200}}},
		{"/similar?mode=0&row=7&k=3&lo=100&hi=200", serve.Query{Kind: serve.Similar, Mode: 0, Row: 7, K: 3, Range: &serve.Range{Lo: 100, Hi: 200}}},
		{"/topk?mode=0&row=7&k=3&lo=0&hi=0", serve.Query{Mode: 0, Given: []serve.Cond{{Mode: 1, Row: 7}}, K: 3, Range: &serve.Range{}}},
		{"/similar?mode=0&row=7&k=3&lo=0&hi=0", serve.Query{Kind: serve.Similar, Mode: 0, Row: 7, K: 3, Range: &serve.Range{}}},
		{"/topk?mode=0&given=2,1&row=5,7&k=4&exclude=491,570", serve.Query{Mode: 0, Given: []serve.Cond{{Mode: 2, Row: 5}, {Mode: 1, Row: 7}}, K: 4, Exclude: []int{491, 570}}},
	}
	// A budget is a replica's Config, not a query parameter: the router
	// refuses a query that carries one rather than drop it.
	for name, rt := range map[string]*Router{"router": affinity, "router (shards)": sharded} {
		q := serve.Query{Mode: 0, Given: []serve.Cond{{Mode: 1, Row: 7}}, K: 3, Budget: 10}
		if _, err := rt.Rank(context.Background(), q); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("%s: a query with a budget answered %v, want an error naming budget", name, err)
		}
	}
	for name, h := range handlers {
		for _, c := range rejected {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.target, nil))
			var body struct {
				Error string `json:"error"`
			}
			json.Unmarshal(rec.Body.Bytes(), &body) //nolint:errcheck // checked through body.Error
			if rec.Code != http.StatusBadRequest || !strings.Contains(body.Error, c.names) {
				t.Errorf("%s %s: %d %q, want 400 naming %s", name, c.target, rec.Code, body.Error, c.names)
			}
		}
		for _, c := range honored {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.target, nil))
			var body struct {
				Results []serve.Scored `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", name, c.target, rec.Code, rec.Body.Bytes())
			}
			want, err := single.Rank(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(body.Results) != len(want) {
				t.Fatalf("%s %s: %v, want %v", name, c.target, body.Results, want)
			}
			for i := range want {
				if body.Results[i] != want[i] {
					t.Fatalf("%s %s: %v, want %v", name, c.target, body.Results, want)
				}
			}
		}
	}
}
