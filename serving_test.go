package cstf

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"cstf/internal/la"
	"cstf/internal/serve"
)

// End-to-end serving path: train with periodic checkpointing, load the
// checkpoint back as factors, start a server from them, and query it over
// HTTP — the full `cstf -checkpoint` → `cstf-serve -model` pipeline in one
// test.
func TestTrainCheckpointServeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	x := RandomTensor(3, 600, 40, 30, 20)
	dec, err := Decompose(x, Options{
		Rank: 3, MaxIters: 4, NoConvergenceCheck: true, Seed: 5,
		Faults: FaultOptions{CheckpointEvery: 1, CheckpointPath: path},
	})
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadFactors(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rank() != dec.Rank() || loaded.Iters != dec.Iters {
		t.Fatalf("loaded rank/iters %d/%d want %d/%d", loaded.Rank(), loaded.Iters, dec.Rank(), dec.Iters)
	}
	// The checkpointed model must evaluate identically to the live one.
	for _, idx := range [][]int{{0, 0, 0}, {39, 29, 19}, {7, 11, 13}} {
		if got, want := loaded.At(idx...), dec.At(idx...); math.Abs(got-want) > 1e-12 {
			t.Fatalf("At(%v) = %v from checkpoint, %v live", idx, got, want)
		}
	}

	s, err := loaded.Server(ServeOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(serve.NewHandler(s))
	defer srv.Close()

	// /predict must agree with Decomposition.At.
	var pr struct {
		Value float64 `json:"value"`
	}
	getJSON(t, srv.URL+"/predict?index=7,11,13", &pr)
	if want := loaded.At(7, 11, 13); math.Abs(pr.Value-want) > 1e-12 {
		t.Fatalf("/predict = %v want %v", pr.Value, want)
	}

	// /topk must rank by the reconstructed model: verify against a direct
	// brute-force argmax over mode-1 rows with modes 2 marginalized.
	var tr struct {
		Results []serve.Scored `json:"results"`
	}
	getJSON(t, srv.URL+"/topk?mode=1&given=0&row=4&k=3", &tr)
	if len(tr.Results) != 3 {
		t.Fatalf("/topk returned %d results, want 3", len(tr.Results))
	}
	best, bestScore := -1, math.Inf(-1)
	for j := 0; j < 30; j++ {
		var sum float64
		for k := 0; k < 20; k++ {
			sum += loaded.At(4, j, k)
		}
		if sum > bestScore {
			best, bestScore = j, sum
		}
	}
	if tr.Results[0].Index != best {
		t.Fatalf("/topk best row %d, brute force says %d", tr.Results[0].Index, best)
	}
	if math.Abs(tr.Results[0].Score-bestScore) > 1e-9 {
		t.Fatalf("/topk best score %v, brute force %v", tr.Results[0].Score, bestScore)
	}

	var hr struct {
		Status string `json:"status"`
		Rank   int    `json:"rank"`
	}
	getJSON(t, srv.URL+"/healthz", &hr)
	if hr.Status != "ok" || hr.Rank != 3 {
		t.Fatalf("/healthz = %+v", hr)
	}
}

// Server serves the decomposition's own factor matrices, without a copy:
// serving only reads them, and Lambda, which callers can write, is cloned.
func TestServerSharesDecompositionFactors(t *testing.T) {
	x := RandomTensor(8, 300, 20, 15, 10)
	dec, err := Decompose(x, Options{Rank: 2, MaxIters: 2, NoConvergenceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	factorHash := func() uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, f := range dec.Factors {
			for _, v := range f.d.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	before := factorHash()
	// No cache: a later answer must come from the model, not a stored one.
	s, err := dec.Server(ServeOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for n, f := range dec.Factors {
		if served := s.Model().Factor(n); &served.Data[0] != &f.d.Data[0] {
			t.Fatalf("mode %d: served factor is a copy, want the decomposition's own", n)
		}
	}

	ctx := context.Background()
	query := func() (float64, []serve.Scored) {
		p, err := s.Predict(ctx, 3, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		top, err := s.TopK(ctx, 1, 0, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		return p, top
	}
	p0, top0 := query()
	dec.Lambda[0] = 1e9
	p1, top1 := query()
	if p1 != p0 || !reflect.DeepEqual(top1, top0) {
		t.Fatalf("writing dec.Lambda changed served answers: predict %v -> %v, topk %v -> %v", p0, p1, top0, top1)
	}

	m, err := serve.NewModel([]float64{1, 1}, []*la.Dense{s.Model().Factor(0), s.Model().Factor(1), s.Model().Factor(2)}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Swap(m)
	query()
	if factorHash() != before {
		t.Fatal("serving wrote the decomposition's factors")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal(fmt.Errorf("GET %s: status %d", url, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
